//! # dra-encoding — the differential register encoder/decoder
//!
//! Implements Section 2 of the paper end to end:
//!
//! * the decode-state dataflow that determines, at every program point,
//!   what the hardware's `last_reg` register holds ([`state`]);
//! * the repair pass that inserts `set_last_reg(value, delay)` pseudo-
//!   instructions wherever a difference falls out of range or control-flow
//!   paths disagree ([`repair`]);
//! * a bit-accurate encoder and a dynamic-trace decoder used to verify that
//!   decoding along *any* execution path reproduces the original register
//!   numbers ([`verify`]);
//! * the Section 2.1 hardware cost model for the modulo adders
//!   ([`hardware`]).
//!
//! ```
//! use dra_adjgraph::DiffParams;
//! use dra_encoding::{insert_set_last_reg, verify_function, EncodingConfig};
//! use dra_ir::{FunctionBuilder, Inst, PReg};
//!
//! // r0 -> r10 is out of range under RegN=12, DiffN=8: a repair appears.
//! let mut b = FunctionBuilder::new("f");
//! b.push(Inst::Mov { dst: PReg(10).into(), src: PReg(0).into() });
//! b.ret(None);
//! let mut f = b.finish();
//! let cfg = EncodingConfig::new(DiffParams::new(12, 8));
//! let stats = insert_set_last_reg(&mut f, &cfg);
//! assert!(stats.inserted > 0);
//! verify_function(&f, &cfg).expect("function decodes consistently");
//! ```

pub mod binary;
pub mod hardware;
pub mod repair;
pub mod state;
pub mod verify;

pub use binary::{assemble_function, disassemble_trace, AssembledFunction, BinaryError};
pub use repair::{insert_set_last_reg, insert_set_last_reg_program, EncodingConfig, RepairPlacement, RepairStats};
pub use state::{
    block_entry_states, block_entry_states_ordered, block_entry_states_reference_ordered,
    transfer_block, DecodeState, LastReg,
};
pub use verify::{
    decode_field, decode_trace, decode_trace_fields, encode_fields, verify_function, DecodeError,
    InstFields,
};
