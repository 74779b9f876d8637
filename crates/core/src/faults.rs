//! Deterministic fault injection for the differential-encoding pipeline.
//!
//! The paper's safety story is that every decode hazard is *repaired or
//! rejected*: a `DiffW`-bit field can address `RegN > 2^DiffW` registers
//! only because out-of-range differences and multi-path `last_reg`
//! disagreements are caught before the stream ships. The happy-path tests
//! prove the repair pass establishes consistency; this module proves the
//! *detection* side by attacking the encoded stream directly.
//!
//! Two layers:
//!
//! * **Stream faults** ([`StreamFault`], [`run_fault_campaign`]) mutate an
//!   encoded field stream (or the decoder's power-on state) and adjudicate
//!   the result with [`adjudicate`]: every injected fault must be either
//!   **detected** (a structured [`DecodeError`] naming the site) or
//!   **provably benign** (the decoded trace is bit-equal to the clean
//!   decode). A fault that decodes successfully to *different* registers
//!   would be silent divergence — the outcome the encoding exists to make
//!   impossible — and is counted separately ([`FaultOutcome::Diverged`])
//!   so tests can assert it never happens.
//! * **Pipeline faults** ([`PipelineFaults`]) inject failures into the
//!   compile pipeline itself — worker panics in batch cells, per-function
//!   allocation/verification failures, simulation failures — to exercise
//!   the panic isolation in [`crate::batch`] and the degradation lattice
//!   in [`crate::lowend`].
//!
//! All randomness is a seeded [`SplitMix64`] stream: the same seed always
//! produces the same fault list, so a failing campaign is a reproducible
//! test case, not a flake.

use dra_encoding::{
    decode_trace_fields, encode_fields, DecodeError, EncodingConfig, InstFields, LastReg,
};
use dra_ir::{BlockId, Function, Inst, RegClass};
use std::collections::BTreeSet;
use std::fmt;

/// A SplitMix64 generator — the same finalizer the remap search derives
/// its per-start streams from, packaged as a stateful stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// One injectable corruption of an encoded stream, a repair instruction,
/// or the decoder's power-on state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamFault {
    /// Replace one field code with a different (possibly invalid) code.
    CorruptField {
        /// Block of the corrupted field.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
        /// Field index within the instruction.
        field: usize,
        /// The substituted code.
        new_code: u16,
    },
    /// Drop a `set_last_reg` (replaced by `nop`, preserving stream shape).
    DropSet {
        /// Block of the dropped repair.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
    },
    /// Duplicate a `set_last_reg` immediately after itself.
    DuplicateSet {
        /// Block of the duplicated repair.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
    },
    /// Reorder a `set_last_reg` with the following instruction.
    SwapWithNext {
        /// Block of the reordered repair.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
    },
    /// Rewrite a `set_last_reg`'s value operand.
    FlipSetValue {
        /// Block of the rewritten repair.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
        /// The substituted value.
        new_value: u8,
    },
    /// Flip the decoder's power-on `last_reg` from unknown to a concrete
    /// (possibly out-of-range) value.
    FlipEntryState {
        /// The injected power-on register.
        value: u8,
    },
    /// Truncate one block's field stream before instruction `inst`.
    Truncate {
        /// Block whose stream is cut.
        block: BlockId,
        /// First instruction index with no stream entry after the cut.
        inst: usize,
    },
}

impl StreamFault {
    /// Short kind label for reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            StreamFault::CorruptField { .. } => "corrupt_field",
            StreamFault::DropSet { .. } => "drop_set",
            StreamFault::DuplicateSet { .. } => "duplicate_set",
            StreamFault::SwapWithNext { .. } => "swap_set",
            StreamFault::FlipSetValue { .. } => "flip_set_value",
            StreamFault::FlipEntryState { .. } => "flip_entry_state",
            StreamFault::Truncate { .. } => "truncate",
        }
    }
}

impl fmt::Display for StreamFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamFault::CorruptField {
                block,
                inst,
                field,
                new_code,
            } => write!(f, "corrupt field {block}:{inst}.{field} -> {new_code}"),
            StreamFault::DropSet { block, inst } => write!(f, "drop set_last_reg {block}:{inst}"),
            StreamFault::DuplicateSet { block, inst } => {
                write!(f, "duplicate set_last_reg {block}:{inst}")
            }
            StreamFault::SwapWithNext { block, inst } => {
                write!(f, "swap set_last_reg {block}:{inst} with successor")
            }
            StreamFault::FlipSetValue {
                block,
                inst,
                new_value,
            } => write!(f, "flip set_last_reg {block}:{inst} value -> r{new_value}"),
            StreamFault::FlipEntryState { value } => {
                write!(f, "flip power-on last_reg -> r{value}")
            }
            StreamFault::Truncate { block, inst } => {
                write!(f, "truncate stream of {block} before inst {inst}")
            }
        }
    }
}

/// Adjudication of one injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The decoder rejected the corrupted stream with a precise error.
    Detected(DecodeError),
    /// The dynamic decode along the trace was bit-equal to the clean
    /// decode, but the *static* symbolic checker
    /// ([`dra_regalloc::check_encoded_fields`]) rejected the faulted
    /// artifact — the fault is latent on this trace yet provably unsafe
    /// on some path. Counts as detected.
    DetectedStatic(String),
    /// Both adjudicators agree the fault is harmless: the decode is
    /// bit-equal to the clean decode *and* the symbolic checker accepts
    /// the faulted artifact on every path.
    Benign,
    /// The decode succeeded but produced different registers — silent
    /// divergence. Must never happen; campaigns assert the count is 0.
    Diverged,
}

/// Every `(block, inst, field)` holding a code in the stream.
fn field_sites(encoded: &[Vec<InstFields>]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (b, block) in encoded.iter().enumerate() {
        for (ii, codes) in block.iter().enumerate() {
            for k in 0..codes.len() {
                out.push((b, ii, k));
            }
        }
    }
    out
}

/// Every `(block, inst)` holding a `set_last_reg` of `class`.
fn set_sites(f: &Function, class: RegClass) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (b, blk) in f.blocks.iter().enumerate() {
        for (ii, inst) in blk.insts.iter().enumerate() {
            if matches!(inst, Inst::SetLastReg { class: c, .. } if *c == class) {
                out.push((b, ii));
            }
        }
    }
    out
}

/// Draw `n` faults from the seeded stream, covering whichever fault kinds
/// the function and stream make injectable. Deterministic per
/// `(f, cfg, encoded, seed, n)`.
pub fn sample_faults(
    f: &Function,
    cfg: &EncodingConfig,
    encoded: &[Vec<InstFields>],
    seed: u64,
    n: usize,
) -> Vec<StreamFault> {
    let fields = field_sites(encoded);
    let sets = set_sites(f, cfg.class);
    let swappable: Vec<(usize, usize)> = sets
        .iter()
        .copied()
        .filter(|&(b, ii)| ii + 1 < f.blocks[b].insts.len())
        .collect();
    let reg_n = u64::from(cfg.params.reg_n());
    // Codes one past the reserved window are *invalid*; include them so
    // the campaign also proves undecodable codes are rejected.
    let code_space = u64::from(cfg.effective_diff_n()) + cfg.reserved.len() as u64 + 4;

    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match rng.below(7) {
            0 if !fields.is_empty() => {
                let (b, ii, k) = fields[rng.below(fields.len() as u64) as usize];
                let old = encoded[b][ii][k];
                let mut new_code = rng.below(code_space) as u16;
                if new_code == old {
                    new_code = (new_code + 1) % code_space as u16;
                }
                out.push(StreamFault::CorruptField {
                    block: BlockId(b as u32),
                    inst: ii,
                    field: k,
                    new_code,
                });
            }
            1 if !sets.is_empty() => {
                let (b, ii) = sets[rng.below(sets.len() as u64) as usize];
                out.push(StreamFault::DropSet {
                    block: BlockId(b as u32),
                    inst: ii,
                });
            }
            2 if !sets.is_empty() => {
                let (b, ii) = sets[rng.below(sets.len() as u64) as usize];
                out.push(StreamFault::DuplicateSet {
                    block: BlockId(b as u32),
                    inst: ii,
                });
            }
            3 if !swappable.is_empty() => {
                let (b, ii) = swappable[rng.below(swappable.len() as u64) as usize];
                out.push(StreamFault::SwapWithNext {
                    block: BlockId(b as u32),
                    inst: ii,
                });
            }
            4 if !sets.is_empty() => {
                let (b, ii) = sets[rng.below(sets.len() as u64) as usize];
                let old = match &f.blocks[b].insts[ii] {
                    Inst::SetLastReg { value, .. } => *value,
                    _ => unreachable!("set_sites returned a non-set"),
                };
                let mut new_value = rng.below(reg_n) as u8;
                if new_value == old {
                    new_value = ((u64::from(new_value) + 1) % reg_n) as u8;
                }
                out.push(StreamFault::FlipSetValue {
                    block: BlockId(b as u32),
                    inst: ii,
                    new_value,
                });
            }
            5 => {
                // Past RegN on purpose sometimes: corrupt state must be
                // rejected, not fed to the modulo adder.
                let value = rng.below(reg_n + 4) as u8;
                out.push(StreamFault::FlipEntryState { value });
            }
            6 if !fields.is_empty() => {
                let (b, ii, _) = fields[rng.below(fields.len() as u64) as usize];
                out.push(StreamFault::Truncate {
                    block: BlockId(b as u32),
                    inst: ii,
                });
            }
            _ => {} // kind not injectable here; redraw
        }
    }
    out
}

/// Apply `fault` to the mutable decode inputs: the function clone (repair
/// instructions live there), the field stream, and the power-on state.
/// Stream shape stays aligned with the instruction list for every kind —
/// misalignment *detection* is the decoder's job, so the mutations model
/// hardware-plausible corruption, not harness bugs.
pub fn apply_fault(
    f: &mut Function,
    encoded: &mut [Vec<InstFields>],
    init: &mut LastReg,
    fault: &StreamFault,
) {
    match fault {
        StreamFault::CorruptField {
            block,
            inst,
            field,
            new_code,
        } => encoded[block.index()][*inst][*field] = *new_code,
        StreamFault::DropSet { block, inst } => {
            f.blocks[block.index()].insts[*inst] = Inst::Nop;
        }
        StreamFault::DuplicateSet { block, inst } => {
            let copy = f.blocks[block.index()].insts[*inst].clone();
            f.blocks[block.index()].insts.insert(inst + 1, copy);
            encoded[block.index()].insert(inst + 1, Vec::new());
        }
        StreamFault::SwapWithNext { block, inst } => {
            f.blocks[block.index()].insts.swap(*inst, inst + 1);
            encoded[block.index()].swap(*inst, inst + 1);
        }
        StreamFault::FlipSetValue {
            block,
            inst,
            new_value,
        } => {
            if let Inst::SetLastReg { value, .. } = &mut f.blocks[block.index()].insts[*inst] {
                *value = *new_value;
            }
        }
        StreamFault::FlipEntryState { value } => *init = LastReg::known(*value),
        StreamFault::Truncate { block, inst } => encoded[block.index()].truncate(*inst),
    }
}

/// Inject `fault` into a clean encode of `f` and classify the decode of
/// `trace` against the clean decode, with the symbolic checker as second
/// adjudicator: a fault is only [`FaultOutcome::Benign`] when the dynamic
/// decode is bit-equal to the clean decode *and*
/// [`dra_regalloc::check_encoded_fields`] accepts the faulted artifact on
/// every static path. A trace-equal decode the checker rejects is
/// [`FaultOutcome::DetectedStatic`].
///
/// # Errors
///
/// An error from the *clean* encode or decode — meaning `f` was not
/// verified/repaired before the campaign, a caller bug, not a fault
/// detection.
pub fn adjudicate(
    f: &Function,
    cfg: &EncodingConfig,
    trace: &[BlockId],
    fault: &StreamFault,
) -> Result<FaultOutcome, DecodeError> {
    let clean_encoded = encode_fields(f, cfg)?;
    let clean = decode_trace_fields(f, cfg, &clean_encoded, trace, LastReg::default())?;

    let mut fm = f.clone();
    let mut em = clean_encoded;
    let mut init = LastReg::default();
    apply_fault(&mut fm, &mut em, &mut init, fault);
    Ok(match decode_trace_fields(&fm, cfg, &em, trace, init.clone()) {
        Err(e) => FaultOutcome::Detected(e),
        Ok(decoded) if decoded == clean => {
            match dra_regalloc::check_encoded_fields(&fm, cfg, &em, Some(&init)) {
                Ok(_) => FaultOutcome::Benign,
                Err(e) => FaultOutcome::DetectedStatic(e.to_string()),
            }
        }
        Ok(_) => FaultOutcome::Diverged,
    })
}

/// Outcome counts of a fault campaign, plus the full adjudication list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultReport {
    /// Faults injected.
    pub injected: u64,
    /// Faults rejected by either adjudicator (the decoder's structured
    /// error or the symbolic checker's static rejection).
    pub detected: u64,
    /// Of `detected`: faults the dynamic decode missed (bit-equal trace)
    /// that only the symbolic checker rejected.
    pub detected_static: u64,
    /// Faults both adjudicators agree are harmless.
    pub benign: u64,
    /// Faults that decoded successfully to *different* registers. The
    /// campaign's safety property is that this stays zero.
    pub diverged: u64,
    /// Every fault with its outcome, in injection order.
    pub outcomes: Vec<(StreamFault, FaultOutcome)>,
}

impl FaultReport {
    /// True when every fault was classified detected-or-benign.
    pub fn fully_adjudicated(&self) -> bool {
        self.diverged == 0 && self.injected == self.detected + self.benign
    }
}

/// Run a seeded campaign of `n` faults against `f`'s encoded stream,
/// adjudicating each along `trace`.
///
/// # Errors
///
/// See [`adjudicate`] — only a caller-side unverified `f` errors; fault
/// detections are outcomes, not errors.
pub fn run_fault_campaign(
    f: &Function,
    cfg: &EncodingConfig,
    trace: &[BlockId],
    seed: u64,
    n: usize,
) -> Result<FaultReport, DecodeError> {
    let encoded = encode_fields(f, cfg)?;
    let faults = sample_faults(f, cfg, &encoded, seed, n);
    let mut report = FaultReport::default();
    for fault in faults {
        let outcome = adjudicate(f, cfg, trace, &fault)?;
        report.injected += 1;
        match outcome {
            FaultOutcome::Detected(_) => report.detected += 1,
            FaultOutcome::DetectedStatic(_) => {
                report.detected += 1;
                report.detected_static += 1;
            }
            FaultOutcome::Benign => report.benign += 1,
            FaultOutcome::Diverged => report.diverged += 1,
        }
        report.outcomes.push((fault, outcome));
    }
    Ok(report)
}

/// Deterministic fault injection into the *compile pipeline* (as opposed
/// to the encoded stream): drives the panic isolation of
/// [`crate::batch::run_batch_isolated`] and the degradation lattice of
/// [`crate::lowend::compile_program_telemetry`]. Defaults to clean (no
/// injection); carried on [`crate::lowend::LowEndSetup`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineFaults {
    /// Batch cell indices whose worker closure panics (exercises
    /// `catch_unwind` isolation; the cell fails, its neighbors survive).
    pub panic_cells: BTreeSet<usize>,
    /// Function indices whose differential *allocation* reports an
    /// injected failure (exercises per-function degradation to direct).
    pub fail_alloc_funcs: BTreeSet<usize>,
    /// Function indices whose differential *verification* reports an
    /// injected failure.
    pub fail_verify_funcs: BTreeSet<usize>,
    /// Inject a simulation failure for differential approaches
    /// (exercises the whole-program direct re-compile fallback).
    pub fail_sim: bool,
}

impl PipelineFaults {
    /// No injection at all (the default).
    pub fn is_clean(&self) -> bool {
        self.panic_cells.is_empty()
            && self.fail_alloc_funcs.is_empty()
            && self.fail_verify_funcs.is_empty()
            && !self.fail_sim
    }

    /// A seeded fault plan for a matrix of `cells` cells over programs of
    /// up to `funcs` functions: two panicking cells (one when `cells` is
    /// 1), one alloc-failing and one verify-failing function. `seed == 0`
    /// means clean.
    pub fn from_seed(seed: u64, cells: usize, funcs: usize) -> PipelineFaults {
        let mut faults = PipelineFaults::default();
        if seed == 0 {
            return faults;
        }
        let mut rng = SplitMix64::new(seed);
        if cells > 0 {
            let first = rng.below(cells as u64) as usize;
            let mut second = rng.below(cells as u64) as usize;
            // Redraw a collision so the plan holds two distinct cells.
            while cells > 1 && second == first {
                second = rng.below(cells as u64) as usize;
            }
            faults.panic_cells.extend([first, second]);
        }
        if funcs > 0 {
            faults
                .fail_alloc_funcs
                .insert(rng.below(funcs as u64) as usize);
            faults
                .fail_verify_funcs
                .insert(rng.below(funcs as u64) as usize);
        }
        faults
    }
}

/// Fault-injection hooks for the *serving* layer (`drac serve`), keyed by
/// request id so a test or chaos campaign can target exact requests.
/// Empty (the default) in production. Three escalating failure modes:
///
/// * `panic_request_ids` — the job panics **inside** the per-request
///   `catch_unwind` (exercises request-level containment: the worker
///   survives, the client gets a `panic` error).
/// * `kill_request_ids` — the worker thread panics **outside** the
///   per-request isolation, i.e. the thread dies (exercises worker
///   supervision: the monitor must answer the lost request and restart
///   the shard worker).
/// * `stall_request_ids` — the worker blocks on the server's stall gate
///   before compiling (simulates a wedged slow request; used to hold
///   queues full deterministically in overload tests).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeFaults {
    /// Request ids whose job panics inside the per-request isolation.
    pub panic_request_ids: BTreeSet<String>,
    /// Request ids that kill their shard worker thread.
    pub kill_request_ids: BTreeSet<String>,
    /// Request ids whose worker stalls until the stall gate opens.
    pub stall_request_ids: BTreeSet<String>,
}

impl ServeFaults {
    /// No injection at all (the default).
    pub fn is_clean(&self) -> bool {
        self.panic_request_ids.is_empty()
            && self.kill_request_ids.is_empty()
            && self.stall_request_ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_adjgraph::DiffParams;
    use dra_encoding::insert_set_last_reg;
    use dra_ir::{FunctionBuilder, PReg};

    fn repaired_function() -> (Function, EncodingConfig, Vec<BlockId>) {
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::Mov {
            dst: PReg(1).into(),
            src: PReg(0).into(),
        });
        b.push(Inst::Mov {
            dst: PReg(5).into(),
            src: PReg(1).into(),
        });
        b.push(Inst::Mov {
            dst: PReg(11).into(),
            src: PReg(5).into(),
        });
        b.ret(None);
        let mut f = b.finish();
        let cfg = EncodingConfig::new(DiffParams::new(12, 8));
        insert_set_last_reg(&mut f, &cfg);
        (f, cfg, vec![BlockId(0)])
    }

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sampling_is_deterministic() {
        let (f, cfg, _) = repaired_function();
        let encoded = encode_fields(&f, &cfg).unwrap();
        let a = sample_faults(&f, &cfg, &encoded, 42, 32);
        let b = sample_faults(&f, &cfg, &encoded, 42, 32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        let kinds: BTreeSet<&str> = a.iter().map(StreamFault::kind).collect();
        assert!(kinds.len() >= 4, "seed 42 covers several kinds: {kinds:?}");
    }

    #[test]
    fn corrupt_field_is_detected() {
        let (f, cfg, trace) = repaired_function();
        let encoded = encode_fields(&f, &cfg).unwrap();
        // Find a field actually consumed on the trace and flip it.
        let (b, ii, k) = field_sites(&encoded)[0];
        let old = encoded[b][ii][k];
        let fault = StreamFault::CorruptField {
            block: BlockId(b as u32),
            inst: ii,
            field: k,
            new_code: old ^ 1,
        };
        match adjudicate(&f, &cfg, &trace, &fault).unwrap() {
            FaultOutcome::Detected(e) => {
                // The diagnostic names the site.
                let text = format!("{e}");
                assert!(text.contains("bb0"), "site missing from: {text}");
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn dropped_repair_is_detected() {
        let (f, cfg, trace) = repaired_function();
        let (b, ii) = set_sites(&f, cfg.class)[0];
        let fault = StreamFault::DropSet {
            block: BlockId(b as u32),
            inst: ii,
        };
        assert!(matches!(
            adjudicate(&f, &cfg, &trace, &fault).unwrap(),
            FaultOutcome::Detected(_)
        ));
    }

    #[test]
    fn duplicated_repair_is_benign() {
        // set_last_reg is idempotent at delay 0: setting the same value
        // twice decodes identically.
        let (f, cfg, trace) = repaired_function();
        let (b, ii) = set_sites(&f, cfg.class)[0];
        let fault = StreamFault::DuplicateSet {
            block: BlockId(b as u32),
            inst: ii,
        };
        assert_eq!(
            adjudicate(&f, &cfg, &trace, &fault).unwrap(),
            FaultOutcome::Benign
        );
    }

    #[test]
    fn truncated_stream_is_detected() {
        let (f, cfg, trace) = repaired_function();
        let encoded = encode_fields(&f, &cfg).unwrap();
        let (b, ii, _) = field_sites(&encoded)[0];
        let fault = StreamFault::Truncate {
            block: BlockId(b as u32),
            inst: ii,
        };
        match adjudicate(&f, &cfg, &trace, &fault).unwrap() {
            FaultOutcome::Detected(DecodeError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn campaign_fully_adjudicates() {
        let (f, cfg, trace) = repaired_function();
        let report = run_fault_campaign(&f, &cfg, &trace, 0xC0FFEE, 64).unwrap();
        assert_eq!(report.injected, 64);
        assert!(report.fully_adjudicated(), "diverged: {}", report.diverged);
        assert!(report.detected > 0, "campaign found nothing to detect");
        assert_eq!(report.detected + report.benign, 64);
        assert_eq!(report.diverged, 0);
    }

    #[test]
    fn pipeline_faults_from_seed() {
        assert!(PipelineFaults::from_seed(0, 10, 3).is_clean());
        let f = PipelineFaults::from_seed(9, 10, 3);
        assert!(!f.is_clean());
        assert!(!f.panic_cells.is_empty() && f.panic_cells.len() <= 2);
        assert_eq!(f.fail_alloc_funcs.len(), 1);
        assert_eq!(f.fail_verify_funcs.len(), 1);
        assert_eq!(f, PipelineFaults::from_seed(9, 10, 3), "deterministic");
    }
}
