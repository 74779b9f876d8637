//! # dra-core — end-to-end differential register allocation
//!
//! The public entry point of the reproduction of *Differential Register
//! Allocation* (Zhuang & Pande, PLDI 2005). It wires the substrates
//! together into the two experiment pipelines of the paper's evaluation:
//!
//! * [`lowend`] — Section 10.1: compile a benchmark program with one of
//!   the five setups (`baseline`, `remapping`, `select`, `O-spill`,
//!   `coalesce`), differential-encode it, verify decodability, and run it
//!   on the 5-stage in-order machine. Produces the quantities behind
//!   Figures 11–14.
//! * [`highend`] — Section 10.2: software-pipeline a suite of loops at a
//!   swept `RegN` with `DiffN = 32` and aggregate speedups, spills, and
//!   code growth (Tables 2 and 3).
//!
//! ```
//! use dra_core::lowend::{compile_and_run, Approach, LowEndSetup};
//!
//! let setup = LowEndSetup::default();
//! let base = compile_and_run("crc32", Approach::Baseline, &setup).unwrap();
//! let coal = compile_and_run("crc32", Approach::Coalesce, &setup).unwrap();
//! // Differential coalesce must compute the same answer…
//! assert_eq!(base.ret_value, coal.ret_value);
//! // …while addressing more registers through the same 3-bit fields.
//! assert!(coal.spill_insts <= base.spill_insts);
//! ```

pub mod batch;
pub mod cache;
pub mod corpus;
pub mod faults;
pub mod highend;
pub mod knob;
pub mod lowend;
pub mod profile;
pub mod serve;
pub mod session;
pub mod telemetry;

pub use batch::{
    run_batch, run_batch_isolated, run_lowend_matrix_with_telemetry, CellOutcome, IsolationStats,
    SourceCache,
};
pub use cache::LruCache;
pub use corpus::{
    profile_from_json, profile_to_json, resolve_profile, run_corpus_compile, write_profile,
    CorpusReport,
};
pub use knob::{env_knob, parse_knob};
pub use session::{result_key, CompileSession, ResultKey};
pub use faults::{
    adjudicate, run_fault_campaign, sample_faults, FaultOutcome, FaultReport, PipelineFaults,
    SplitMix64, StreamFault,
};
pub use highend::{run_highend_sweep_with_telemetry, HighEndAggregate};
pub use lowend::{
    compile_and_run, compile_and_run_source, Approach, LowEndRun, LowEndSetup, PipelineError,
};
pub use profile::{apply_profile, compile_and_run_profiled};
pub use telemetry::{validate_telemetry, Telemetry, TelemetryReport};
