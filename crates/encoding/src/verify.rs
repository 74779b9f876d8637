//! Bit-accurate encoding and decode verification.
//!
//! [`encode_fields`] produces, for every instruction, the field codes a
//! differential encoder would emit — faithfully modeling the *delayed*
//! `set_last_reg(value, delay)` semantics (the assignment takes effect only
//! after `delay` further register fields have decoded).
//!
//! [`decode_trace`] then plays hardware: it walks a dynamic execution trace
//! (a CFG-valid block sequence), decodes the static field codes as the
//! fetch stream would, and returns the register numbers it reconstructs.
//! Comparing those to the original operands proves multi-path consistency —
//! the property `set_last_reg` insertion exists to establish.
//!
//! # Totality
//!
//! [`decode_trace_fields`] is the *untrusted-input* decode entry: the
//! field stream and the initial `last_reg` state are caller-supplied, so a
//! fault-injection harness (or a fuzzer) can hand it corrupted codes,
//! truncated streams, reordered repairs, or a flipped power-on state. The
//! decoder is **total** over those inputs — every malformed stream is
//! reported as a structured [`DecodeError`] naming the site (block,
//! instruction, and the expected-vs-decoded registers where applicable),
//! never a panic. `tests/fault_injection.rs` pins both halves: a proptest
//! that arbitrary byte streams never panic, and a seeded fault campaign
//! asserting every injected corruption is either detected or provably
//! benign (decode bit-equal to the clean stream).

use crate::repair::EncodingConfig;
use crate::state::{class_accesses_ordered, LastReg};
use dra_ir::{BlockId, Function, Inst};
use std::error::Error;
use std::fmt;

/// A decoding/encoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A difference fell outside the encodable range.
    OutOfRange {
        /// Block containing the access.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
        /// `last_reg` at the access.
        prev: u8,
        /// Register that could not be reached.
        cur: u8,
    },
    /// A register field was reached with unknown (or corrupt) `last_reg`.
    Inconsistent {
        /// Block containing the access.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
        /// Register the field names in the source of truth.
        reg: u8,
    },
    /// A dynamic trace was not a valid CFG walk.
    BadTrace {
        /// Position in the trace.
        position: usize,
    },
    /// Dynamic decode produced a different register than the code names.
    Mismatch {
        /// Block containing the access.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
        /// Position in the trace (field-access index).
        position: usize,
        /// What the decoder produced.
        decoded: u8,
        /// What the instruction actually names.
        expected: u8,
    },
    /// An instruction's field count disagrees with its register accesses
    /// (a dropped, duplicated, or misaligned stream entry).
    FieldCount {
        /// Block containing the instruction.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
        /// Fields the instruction's accesses require.
        expected: usize,
        /// Fields the stream supplied.
        got: usize,
    },
    /// The field stream ended before the instruction it should encode.
    Truncated {
        /// Block whose stream ran out.
        block: BlockId,
        /// First instruction index with no stream entry.
        inst: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::OutOfRange {
                block,
                inst,
                prev,
                cur,
            } => write!(
                f,
                "difference r{prev} -> r{cur} out of range at {block}:{inst}"
            ),
            DecodeError::Inconsistent { block, inst, reg } => {
                write!(f, "unknown last_reg for r{reg} at {block}:{inst}")
            }
            DecodeError::BadTrace { position } => {
                write!(f, "trace step {position} is not a CFG edge")
            }
            DecodeError::Mismatch {
                block,
                inst,
                position,
                decoded,
                expected,
            } => write!(
                f,
                "decode mismatch at {block}:{inst} (access {position}): got r{decoded}, expected r{expected}"
            ),
            DecodeError::FieldCount {
                block,
                inst,
                expected,
                got,
            } => write!(
                f,
                "field count mismatch at {block}:{inst}: {got} codes for {expected} accesses"
            ),
            DecodeError::Truncated { block, inst } => {
                write!(f, "field stream truncated before {block}:{inst}")
            }
        }
    }
}

impl Error for DecodeError {}

/// Field codes of one instruction (one per class register access).
pub type InstFields = Vec<u16>;

/// Encode one field given the decoder state; mirrors the hardware encoder.
fn encode_one(
    cfg: &EncodingConfig,
    last: &mut LastReg,
    r: u8,
) -> Result<u16, ()> {
    if let Some(idx) = cfg.reserved.iter().position(|&x| x == r) {
        let code = cfg.effective_diff_n() + idx as u16;
        last.after_field(None);
        return Ok(code);
    }
    let prev = last.current().ok_or(())?;
    let d = cfg.params.encode(prev, r);
    if d >= cfg.effective_diff_n() {
        return Err(());
    }
    last.after_field(Some(r));
    Ok(d)
}

/// Decode one field code; the exact inverse of [`encode_one`].
///
/// Total over arbitrary `code` values and `last` states: an out-of-range
/// reserved index or a corrupt `last_reg` (a value `>= RegN`, reachable
/// only through injected faults) returns `None`, never panics.
fn decode_one(cfg: &EncodingConfig, last: &mut LastReg, code: u16) -> Option<u8> {
    if code >= cfg.effective_diff_n() {
        let idx = (code - cfg.effective_diff_n()) as usize;
        let r = *cfg.reserved.iter().nth(idx)?;
        last.after_field(None);
        return Some(r);
    }
    let prev = last.current()?;
    if u16::from(prev) >= cfg.params.reg_n() {
        // A corrupt state (e.g. an injected set_last_reg value) can name a
        // register the modulo adder does not implement; reject it instead
        // of feeding the arithmetic an out-of-domain operand.
        return None;
    }
    let r = cfg.params.decode(prev, code);
    last.after_field(Some(r));
    Some(r)
}

/// Decode one field code against decoder state `last`, advancing the
/// state exactly as the hardware (and [`decode_trace_fields`]) would.
///
/// This is [`decode_one`] made public for external replay clients — the
/// symbolic allocation checker re-walks a function's field stream with
/// its own per-block fixpoint and must consume fields through the *same*
/// decoder the dynamic verifier uses, not a reimplementation. Total over
/// arbitrary `code` values and corrupt `last` states: returns `None`
/// instead of panicking.
pub fn decode_field(cfg: &EncodingConfig, last: &mut LastReg, code: u16) -> Option<u8> {
    decode_one(cfg, last, code)
}

/// Statically encode every instruction of `f`.
///
/// Returns, per block, per instruction, the emitted field codes.
/// `set_last_reg` instructions produce no fields (they are operands of the
/// decode stage itself).
///
/// # Errors
///
/// [`DecodeError::OutOfRange`] / [`DecodeError::Inconsistent`] when the
/// function was not (correctly) repaired first.
pub fn encode_fields(
    f: &Function,
    cfg: &EncodingConfig,
) -> Result<Vec<Vec<InstFields>>, DecodeError> {
    let entry_states = crate::state::block_entry_states_ordered(f, cfg.class, cfg.order);
    let mut out = Vec::with_capacity(f.num_blocks());
    for (b, blk) in f.iter_blocks() {
        let mut last = match entry_states[b.index()] {
            crate::state::DecodeState::Known(v) => LastReg::known(v),
            _ => LastReg::default(),
        };
        let mut block_fields = Vec::with_capacity(blk.insts.len());
        for (ii, inst) in blk.insts.iter().enumerate() {
            block_fields.push(encode_inst(f, cfg, &mut last, inst).map_err(|(prev, cur)| {
                match prev {
                    Some(p) => DecodeError::OutOfRange {
                        block: b,
                        inst: ii,
                        prev: p,
                        cur,
                    },
                    None => DecodeError::Inconsistent {
                        block: b,
                        inst: ii,
                        reg: cur,
                    },
                }
            })?);
        }
        out.push(block_fields);
    }
    Ok(out)
}

/// Encode one instruction's fields; `Err((Some(prev), cur))` = register
/// `cur` is out of range from `prev`, `Err((None, cur))` = `cur` was
/// reached with unknown state.
fn encode_inst(
    f: &Function,
    cfg: &EncodingConfig,
    last: &mut LastReg,
    inst: &Inst,
) -> Result<InstFields, (Option<u8>, u8)> {
    if let Inst::SetLastReg { class, value, delay } = inst {
        if *class == cfg.class {
            last.set(*value, *delay);
        }
        return Ok(Vec::new());
    }
    let mut fields = Vec::new();
    for r in class_accesses_ordered(f, inst, cfg.class, cfg.order) {
        let prev = last.current();
        match encode_one(cfg, last, r) {
            Ok(code) => fields.push(code),
            Err(()) => return Err((prev, r)),
        }
    }
    if matches!(inst, Inst::Call { .. }) {
        last.clobber();
    }
    Ok(fields)
}

/// Verify that `f` is fully decodable (every block, every field).
///
/// # Errors
///
/// The first [`DecodeError`] encountered.
pub fn verify_function(f: &Function, cfg: &EncodingConfig) -> Result<(), DecodeError> {
    encode_fields(f, cfg).map(|_| ())
}

/// Decode a dynamic execution trace and check every register against the
/// original code. `trace` must start at the entry block and follow CFG
/// edges. Returns the decoded register numbers in access order.
///
/// Encodes `f` cleanly first; see [`decode_trace_fields`] to decode a
/// caller-supplied (possibly corrupted) field stream instead.
///
/// # Errors
///
/// [`DecodeError::BadTrace`] for an invalid walk, [`DecodeError::Mismatch`]
/// if hardware decoding would disagree with the source of truth — i.e. the
/// repair pass failed to establish multi-path consistency.
pub fn decode_trace(
    f: &Function,
    cfg: &EncodingConfig,
    trace: &[BlockId],
) -> Result<Vec<u8>, DecodeError> {
    let encoded = encode_fields(f, cfg)?;
    decode_trace_fields(f, cfg, &encoded, trace, LastReg::default())
}

/// [`decode_trace`] over an explicit field stream and initial decoder
/// state: the fault-injection entry point.
///
/// `encoded` is indexed `[block][inst]` like [`encode_fields`]' output but
/// is *not trusted*: corrupt codes, missing or surplus fields, and
/// truncated streams are all reported as errors. `init` is the decoder's
/// power-on `last_reg` (hardware powers on unknown, i.e.
/// `LastReg::default()`; a fault campaign may flip it).
///
/// # Errors
///
/// * [`DecodeError::BadTrace`] — the trace does not start at the entry or
///   takes a non-CFG edge (including block ids outside the function).
/// * [`DecodeError::Truncated`] / [`DecodeError::FieldCount`] — the stream
///   does not cover the instructions the trace executes.
/// * [`DecodeError::Inconsistent`] — a field was reached with unknown or
///   corrupt `last_reg`, or carries an undecodable code.
/// * [`DecodeError::Mismatch`] — decoding succeeded but produced a
///   different register than the instruction names.
pub fn decode_trace_fields(
    f: &Function,
    cfg: &EncodingConfig,
    encoded: &[Vec<InstFields>],
    trace: &[BlockId],
    init: LastReg,
) -> Result<Vec<u8>, DecodeError> {
    if let Some(&first) = trace.first() {
        if first != f.entry {
            return Err(DecodeError::BadTrace { position: 0 });
        }
    }
    let mut last = init;
    let mut decoded_all = Vec::new();
    let mut pos = 0usize;
    for (step, &b) in trace.iter().enumerate() {
        if b.index() >= f.num_blocks() {
            return Err(DecodeError::BadTrace { position: step });
        }
        if step > 0 {
            let prev = trace[step - 1];
            if !f.block(prev).succs.contains(&b) {
                return Err(DecodeError::BadTrace { position: step });
            }
        }
        let stream = encoded
            .get(b.index())
            .ok_or(DecodeError::Truncated { block: b, inst: 0 })?;
        for (ii, inst) in f.block(b).insts.iter().enumerate() {
            if let Inst::SetLastReg { class, value, delay } = inst {
                if *class == cfg.class {
                    last.set(*value, *delay);
                }
                continue;
            }
            let actual = class_accesses_ordered(f, inst, cfg.class, cfg.order);
            let codes = stream
                .get(ii)
                .ok_or(DecodeError::Truncated { block: b, inst: ii })?;
            if codes.len() != actual.len() {
                return Err(DecodeError::FieldCount {
                    block: b,
                    inst: ii,
                    expected: actual.len(),
                    got: codes.len(),
                });
            }
            for (k, &code) in codes.iter().enumerate() {
                let decoded =
                    decode_one(cfg, &mut last, code).ok_or(DecodeError::Inconsistent {
                        block: b,
                        inst: ii,
                        reg: actual[k],
                    })?;
                if decoded != actual[k] {
                    return Err(DecodeError::Mismatch {
                        block: b,
                        inst: ii,
                        position: pos,
                        decoded,
                        expected: actual[k],
                    });
                }
                decoded_all.push(decoded);
                pos += 1;
            }
            if matches!(inst, Inst::Call { .. }) {
                // The callee's stream scrambles last_reg; the repair pass
                // inserted a set_last_reg after the call, which will
                // re-establish it. Model the scramble.
                last.clobber();
            }
        }
    }
    Ok(decoded_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::insert_set_last_reg;
    use dra_adjgraph::DiffParams;
    use dra_ir::{Cond, FunctionBuilder, PReg, RegClass};

    fn mov(dst: u8, src: u8) -> Inst {
        Inst::Mov {
            dst: PReg(dst).into(),
            src: PReg(src).into(),
        }
    }

    fn cfg_12_8() -> EncodingConfig {
        EncodingConfig::new(DiffParams::new(12, 8))
    }

    #[test]
    fn unrepaired_function_fails_verification() {
        let mut b = FunctionBuilder::new("f");
        b.push(mov(1, 0));
        b.ret(None);
        let f = b.finish();
        assert!(matches!(
            verify_function(&f, &cfg_12_8()),
            Err(DecodeError::Inconsistent { .. })
        ));
    }

    #[test]
    fn out_of_range_error_names_both_registers() {
        // r0 -> r10 with DiffN=8 is unreachable; the diagnostic must name
        // the actual failing pair, not placeholders.
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::SetLastReg {
            class: RegClass::Int,
            value: 0,
            delay: 0,
        });
        b.push(mov(10, 0));
        b.ret(None);
        let f = b.finish();
        match verify_function(&f, &cfg_12_8()) {
            Err(DecodeError::OutOfRange { prev, cur, .. }) => {
                assert_eq!(prev, 0);
                assert_eq!(cur, 10, "the unreachable register is reported");
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn repaired_function_verifies_and_first_field_is_zero() {
        let mut b = FunctionBuilder::new("f");
        b.push(mov(1, 0));
        b.ret(None);
        let mut f = b.finish();
        let cfg = cfg_12_8();
        insert_set_last_reg(&mut f, &cfg);
        let fields = encode_fields(&f, &cfg).unwrap();
        // First inst is the repair (no fields); the mov encodes [0, 1].
        let mov_fields: Vec<u16> = fields[0]
            .iter()
            .find(|v| !v.is_empty())
            .cloned()
            .unwrap();
        assert_eq!(mov_fields, vec![0, 1]);
    }

    #[test]
    fn straight_line_trace_roundtrip() {
        let mut b = FunctionBuilder::new("f");
        b.push(mov(1, 0));
        b.push(mov(5, 1));
        b.push(mov(11, 5)); // diff 6, in range under DiffN=8
        b.ret(None);
        let mut f = b.finish();
        let cfg = cfg_12_8();
        insert_set_last_reg(&mut f, &cfg);
        let decoded = decode_trace(&f, &cfg, &[BlockId(0)]).unwrap();
        assert_eq!(decoded, vec![0, 1, 1, 5, 5, 11]);
    }

    #[test]
    fn both_paths_of_a_diamond_decode_identically() {
        let mut b = FunctionBuilder::new("f");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Cond::Eq, PReg(0).into(), PReg(0).into(), t, e);
        b.switch_to(t);
        b.push(mov(1, 0));
        b.br(j);
        b.switch_to(e);
        b.push(mov(9, 0)); // leaves a very different last_reg
        b.br(j);
        b.switch_to(j);
        b.push(mov(3, 2));
        b.ret(None);
        let mut f = b.finish();
        let cfg = cfg_12_8();
        insert_set_last_reg(&mut f, &cfg);
        verify_function(&f, &cfg).unwrap();
        // Decode along both dynamic paths: each must reproduce the join
        // block's registers exactly.
        let via_t = decode_trace(&f, &cfg, &[BlockId(0), t, j]).unwrap();
        let via_e = decode_trace(&f, &cfg, &[BlockId(0), e, j]).unwrap();
        let tail_t: Vec<u8> = via_t[via_t.len() - 2..].to_vec();
        let tail_e: Vec<u8> = via_e[via_e.len() - 2..].to_vec();
        assert_eq!(tail_t, vec![2, 3]);
        assert_eq!(tail_e, vec![2, 3]);
    }

    #[test]
    fn loop_trace_decodes_repeatedly() {
        let mut b = FunctionBuilder::new("f");
        let h = b.new_block();
        let body = b.new_block();
        let ex = b.new_block();
        b.push(mov(1, 0));
        b.br(h);
        b.switch_to(h);
        b.cond_br(Cond::Lt, PReg(1).into(), PReg(2).into(), body, ex);
        b.switch_to(body);
        b.push(mov(4, 3));
        b.br(h);
        b.switch_to(ex);
        b.ret(None);
        let mut f = b.finish();
        let cfg = cfg_12_8();
        insert_set_last_reg(&mut f, &cfg);
        let trace = [BlockId(0), h, body, h, body, h, ex];
        decode_trace(&f, &cfg, &trace).unwrap();
    }

    #[test]
    fn delayed_set_last_reg_fields_before_delay_use_old_state() {
        // Hand-build the paper's set_last_reg(2, 1) situation and check
        // the emitted codes: [0 (R0 from R0), 0 (R2 via the delayed set)].
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::SetLastReg {
            class: RegClass::Int,
            value: 0,
            delay: 0,
        });
        b.push(Inst::SetLastReg {
            class: RegClass::Int,
            value: 2,
            delay: 1,
        });
        b.push(Inst::SetLastReg {
            class: RegClass::Int,
            value: 1,
            delay: 2,
        });
        b.push(Inst::Bin {
            op: dra_ir::BinOp::Add,
            dst: PReg(1).into(),
            lhs: PReg(0).into(),
            rhs: PReg(2).into(),
        });
        b.ret(None);
        let f = b.finish();
        let cfg = EncodingConfig::new(DiffParams::new(4, 2));
        let fields = encode_fields(&f, &cfg).unwrap();
        let add_fields = &fields[0][3];
        assert_eq!(add_fields, &vec![0, 0, 0], "every field rides a set");
        decode_trace(&f, &cfg, &[BlockId(0)]).unwrap();
    }

    #[test]
    fn reserved_register_encodes_as_direct_code() {
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::SetLastReg {
            class: RegClass::Int,
            value: 0,
            delay: 0,
        });
        b.push(Inst::Load {
            dst: PReg(1).into(),
            base: PReg(7).into(),
            offset: 0,
        });
        b.ret(None);
        let f = b.finish();
        let cfg = EncodingConfig::new(DiffParams::new(8, 4)).with_reserved([7]);
        let fields = encode_fields(&f, &cfg).unwrap();
        // Load accesses base (r7) then dst (r1): r7 uses the reserved code
        // 3 (= effective_diff_n), r1 encodes diff 1 from r0.
        assert_eq!(fields[0][1], vec![3, 1]);
        let decoded = decode_trace(&f, &cfg, &[BlockId(0)]).unwrap();
        assert_eq!(decoded, vec![7, 1]);
    }

    #[test]
    fn bad_trace_rejected() {
        let mut b = FunctionBuilder::new("f");
        let t = b.new_block();
        b.br(t);
        b.switch_to(t);
        b.ret(None);
        let mut f = b.finish();
        let cfg = cfg_12_8();
        insert_set_last_reg(&mut f, &cfg);
        assert!(matches!(
            decode_trace(&f, &cfg, &[BlockId(0), BlockId(0)]),
            Err(DecodeError::BadTrace { position: 1 })
        ));
        assert!(matches!(
            decode_trace(&f, &cfg, &[t]),
            Err(DecodeError::BadTrace { position: 0 })
        ));
        // Block ids outside the function are a bad walk, not a panic.
        assert!(matches!(
            decode_trace(&f, &cfg, &[BlockId(0), BlockId(99)]),
            Err(DecodeError::BadTrace { position: 1 })
        ));
    }

    #[test]
    fn corrupted_stream_shapes_are_errors_not_panics() {
        let mut b = FunctionBuilder::new("f");
        b.push(mov(1, 0));
        b.push(mov(5, 1));
        b.ret(None);
        let mut f = b.finish();
        let cfg = cfg_12_8();
        insert_set_last_reg(&mut f, &cfg);
        let clean = encode_fields(&f, &cfg).unwrap();
        let trace = [BlockId(0)];

        // Truncated: stream ends before the first field-bearing inst.
        let mut cut = clean.clone();
        cut[0].truncate(1);
        assert!(matches!(
            decode_trace_fields(&f, &cfg, &cut, &trace, LastReg::default()),
            Err(DecodeError::Truncated { .. })
        ));

        // Surplus field: the old decoder indexed past `actual` and
        // panicked here.
        let mut fat = clean.clone();
        for codes in fat[0].iter_mut() {
            if !codes.is_empty() {
                codes.push(0);
                break;
            }
        }
        assert!(matches!(
            decode_trace_fields(&f, &cfg, &fat, &trace, LastReg::default()),
            Err(DecodeError::FieldCount { .. })
        ));

        // Missing block stream entirely.
        let empty: Vec<Vec<InstFields>> = Vec::new();
        assert!(matches!(
            decode_trace_fields(&f, &cfg, &empty, &trace, LastReg::default()),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupt_initial_state_is_detected_or_benign() {
        let mut b = FunctionBuilder::new("f");
        b.push(mov(1, 0));
        b.ret(None);
        let mut f = b.finish();
        let cfg = cfg_12_8();
        insert_set_last_reg(&mut f, &cfg);
        let clean = encode_fields(&f, &cfg).unwrap();
        let want = decode_trace(&f, &cfg, &[BlockId(0)]).unwrap();
        // Every possible power-on state: the repair pass established the
        // entry state explicitly, so decode is state-independent here —
        // and a state outside RegN must fail cleanly, not panic.
        for v in 0..=u8::MAX {
            match decode_trace_fields(&f, &cfg, &clean, &[BlockId(0)], LastReg::known(v)) {
                Ok(decoded) => assert_eq!(decoded, want),
                Err(e) => panic!("flipped entry state {v} not benign: {e}"),
            }
        }
    }

    #[test]
    fn error_display() {
        let e = DecodeError::OutOfRange {
            block: BlockId(1),
            inst: 2,
            prev: 3,
            cur: 9,
        };
        assert!(format!("{e}").contains("out of range"));
        let m = DecodeError::Mismatch {
            block: BlockId(0),
            inst: 4,
            position: 7,
            decoded: 1,
            expected: 2,
        };
        let text = format!("{m}");
        assert!(text.contains("got r1") && text.contains("expected r2"));
    }
}
