//! # dra-regalloc — register allocators with differential-encoding support
//!
//! Implements the paper's three integration points (Sections 5–7) on top of
//! two traditional allocators:
//!
//! * [`irc`] — iterated register coalescing (George–Appel), the low-end
//!   baseline; hosts **differential select** via
//!   [`irc::SelectStrategy::Differential`].
//! * [`ospill`] — an optimal-spilling allocator in the style of Appel &
//!   George (2001): spill decisions first (pressure everywhere ≤ `RegN`),
//!   coalescing second; hosts **differential coalesce**.
//! * [`remap`] — **differential remapping**, the post-pass permutation
//!   search applicable after *any* allocator.
//!
//! All three can be combined, mirroring Figure 4 of the paper: remapping
//! may always run after select or coalesce.
//!
//! ```
//! use dra_adjgraph::DiffParams;
//! use dra_ir::{BinOp, FunctionBuilder};
//! use dra_regalloc::{irc_allocate, AllocConfig};
//!
//! let mut b = FunctionBuilder::new("demo");
//! let x = b.new_vreg();
//! let y = b.new_vreg();
//! b.mov_imm(x, 2);
//! b.bin_imm(BinOp::Mul, y, x.into(), 21);
//! b.ret(Some(y.into()));
//! let mut f = b.finish();
//!
//! // Differential select: 12 registers addressed through 3-bit fields.
//! let cfg = AllocConfig::differential(DiffParams::new(12, 8));
//! let stats = irc_allocate(&mut f, &cfg)?;
//! assert!(f.is_fully_physical());
//! assert_eq!(stats.spilled_vregs, 0);
//! # Ok::<(), dra_regalloc::AllocError>(())
//! ```

pub mod allocator;
pub mod checker;
pub mod coalesce;
pub mod dense;
pub mod interference;
pub mod irc;
pub mod ospill;
pub mod remap;
pub mod scratch;
pub mod spill;

pub use allocator::{
    allocate_program, Allocation, AllocationRecord, Allocator, AllocatorStats, Coalescing,
    DenseIrc, Ospill, ReferenceIrc,
};
pub use checker::{
    check_allocation, check_encoded_fields, check_function_encoding, CheckError, CheckStats,
    Violation, ViolationKind,
};
pub use interference::InterferenceGraph;
pub use irc::{
    irc_allocate, irc_allocate_program, AllocConfig, AllocError, AllocStats, SelectStrategy, SpillMetric,
};
pub use ospill::{ospill_allocate, ospill_allocate_program, ospill_allocate_recorded, OspillConfig, OspillStats};
pub use coalesce::{coalesce_allocate, coalesce_allocate_program, coalesce_allocate_recorded, CoalesceConfig, CoalesceEval, CoalesceStats};
pub use remap::{
    remap_function, RemapCache, RemapConfig, RemapStats, RemapWinner, DEFAULT_EVAL_BUDGET,
    REMAP_CACHE_CAPACITY,
};
