//! The full software-pipelining flow (the paper's Figure 10 plus the
//! Section 8.1 differential integration).
//!
//! 1. Modulo-schedule the loop at the minimum II.
//! 2. If the kernel's register requirement exceeds `reg_n`, spill the
//!    longest-lived value and reschedule (spills occupy memory ports, so
//!    the II may grow — exactly the effect Table 2 measures).
//! 3. Allocate kernel registers (modulo variable expansion).
//! 4. If `reg_n > diff_n`, the extra registers are only addressable
//!    through differential encoding: run **differential remapping** on the
//!    synthesized kernel and insert `set_last_reg` repairs, all promoted
//!    before the kernel so the schedule itself is untouched.

use crate::ddg::LoopDdg;
use crate::ims::{modulo_schedule, modulo_schedule_from, Schedule};
use crate::kernel::{allocate_kernel, lifetimes, max_live, spill_value};
use dra_adjgraph::DiffParams;
use dra_encoding::{insert_set_last_reg, EncodingConfig};
use dra_regalloc::{remap_function, RemapConfig};
use dra_sim::{loop_cycles, VliwConfig};

/// Configuration of the pipelining flow.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// The VLIW machine.
    pub machine: VliwConfig,
    /// Registers available to the kernel (the paper sweeps 32..64).
    pub reg_n: u16,
    /// Registers addressable directly (32 on the 5-bit-field LEAF32).
    pub diff_n: u16,
    /// Memory latency charged to spill loads.
    pub mem_latency: u32,
    /// Scheduling II cap.
    pub max_ii: u32,
    /// Spill-iteration cap.
    pub max_spills: u32,
    /// Worker threads for the kernel remapping restarts (`0` = one per
    /// CPU; the result is identical at any thread count).
    pub remap_threads: usize,
    /// Replay the repaired kernel's register fields through the symbolic
    /// checker ([`dra_regalloc::check_function_encoding`]) after decode
    /// verification; a rejection is a [`PipelineError::Check`]. Off by
    /// default.
    pub check: bool,
}

impl PipelineConfig {
    /// The paper's high-end setup with `reg_n` registers (`DiffN = 32`).
    pub fn highend(reg_n: u16) -> Self {
        PipelineConfig {
            machine: VliwConfig::default(),
            reg_n,
            diff_n: 32,
            mem_latency: 3,
            max_ii: 512,
            max_spills: 256,
            remap_threads: 0,
            check: false,
        }
    }
}

/// Result of pipelining one loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelinedLoop {
    /// Final initiation interval.
    pub ii: u32,
    /// Pipeline stages.
    pub stages: u32,
    /// Register requirement before any spilling.
    pub max_live_initial: usize,
    /// Register requirement of the final schedule.
    pub max_live_final: usize,
    /// Spill operations added to the DDG.
    pub spill_ops: usize,
    /// `set_last_reg` instructions promoted before the kernel.
    pub set_last_regs: usize,
    /// Total cycles for the loop's trip count.
    pub cycles: u64,
    /// Kernel instructions (code-size accounting).
    pub kernel_ops: usize,
    /// Whether differential encoding was enabled for this loop
    /// (Section 8.2 selective enabling).
    pub differential_enabled: bool,
    /// Candidate scorings the kernel's remapping search spent
    /// ([`dra_regalloc::RemapStats::evaluations`]); 0 when the loop is not
    /// differential.
    pub remap_evaluations: u64,
}

/// Errors from the pipelining flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// No schedule found within the II cap.
    Unschedulable,
    /// Spilling failed to bring the requirement under `reg_n`.
    SpillLimit,
    /// The symbolic checker rejected the repaired kernel
    /// ([`PipelineConfig::check`]); carries the checker's diagnostic.
    Check(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Unschedulable => write!(f, "no modulo schedule within the II cap"),
            PipelineError::SpillLimit => write!(f, "spilling failed to fit the register file"),
            PipelineError::Check(e) => write!(f, "checker rejected the kernel: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Pipeline one loop end to end.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn pipeline_loop(ddg: &LoopDdg, cfg: &PipelineConfig) -> Result<PipelinedLoop, PipelineError> {
    let mut work = ddg.clone();
    let mut spill_ops = 0usize;
    let mut ii_floor = 1u32;

    let first = modulo_schedule(&work, &cfg.machine, cfg.max_ii)
        .ok_or(PipelineError::Unschedulable)?;
    let max_live_initial = max_live(&work, &first);
    let mut schedule: Schedule = first;

    // Fit the register file: spill long-lived values while profitable;
    // when no lifetime exceeds the II (spilling can't shorten anything),
    // raise the II instead — both escape hatches the paper names.
    // Selective enabling (Section 8.2), decided once from the initial
    // requirement: a loop that fits the direct window is compiled
    // entirely within it — the same spill/II path as on the
    // `reg_n = diff_n` baseline — so its result cannot depend on the
    // sweep point. Without the cap, the greedy arc coloring's overshoot
    // of MaxLive can borrow differential-only registers for a loop that
    // needs none, silently enabling differential encoding with a repair
    // count that varies by `reg_n`.
    let direct_n = cfg.diff_n.min(cfg.reg_n);
    let limit = if max_live_initial > direct_n as usize {
        cfg.reg_n
    } else {
        direct_n
    };
    let mut alloc = None;
    for _ in 0..cfg.max_spills + cfg.max_ii {
        if max_live(&work, &schedule) <= limit as usize {
            alloc = allocate_kernel(&work, &schedule, limit);
            if alloc.is_some() {
                break;
            }
        }
        let lt = lifetimes(&work, &schedule);
        let victim = (0..work.len())
            .filter_map(|op| lt.intervals[op].map(|(a, b)| (op, b - a)))
            .filter(|&(_, len)| len > schedule.ii)
            .max_by_key(|&(_, len)| len)
            .map(|(op, _)| op);
        match victim {
            Some(op) => {
                spill_ops += spill_value(&mut work, op, cfg.mem_latency);
            }
            None if schedule.ii < cfg.max_ii => {
                ii_floor = schedule.ii + 1;
            }
            None => return Err(PipelineError::SpillLimit),
        }
        schedule = modulo_schedule_from(&work, &cfg.machine, ii_floor, cfg.max_ii)
            .ok_or(PipelineError::Unschedulable)?;
    }
    let max_live_final = max_live(&work, &schedule);
    let Some(mut alloc) = alloc else {
        return Err(PipelineError::SpillLimit);
    };

    // Differential encoding, enabled only when extra registers are in use
    // (Section 8.2): loops that fit in diff_n registers stay direct.
    let differential_enabled = alloc.regs_used > cfg.diff_n as usize;
    let mut remap_evaluations = 0;
    let set_last_regs = if differential_enabled {
        let params = DiffParams::new(cfg.reg_n, cfg.diff_n.min(cfg.reg_n));
        let mut remap_cfg = RemapConfig::new(params);
        remap_cfg.starts = 32; // kernels are small; a few restarts suffice
        remap_cfg.threads = cfg.remap_threads;
        remap_evaluations = remap_function(&mut alloc.func, &remap_cfg, None).evaluations;
        let enc = EncodingConfig::new(params);
        let stats = insert_set_last_reg(&mut alloc.func, &enc);
        dra_encoding::verify_function(&alloc.func, &enc)
            .expect("repaired kernel decodes");
        if cfg.check {
            dra_regalloc::check_function_encoding(&alloc.func, &enc)
                .map_err(|e| PipelineError::Check(e.to_string()))?;
        }
        stats.inserted
    } else {
        0
    };

    let cycles = loop_cycles(
        &cfg.machine,
        schedule.ii,
        schedule.stages(),
        work.trip_count,
        set_last_regs as u32,
    );

    Ok(PipelinedLoop {
        ii: schedule.ii,
        stages: schedule.stages(),
        max_live_initial,
        max_live_final,
        spill_ops,
        set_last_regs,
        cycles,
        kernel_ops: work.len(),
        differential_enabled,
        remap_evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::LoopOp;

    /// A loop whose MaxLive exceeds 32: many long-latency loads with late
    /// consumers.
    fn hungry_loop(width: usize, trip: u64) -> LoopDdg {
        let mut d = LoopDdg::new(trip);
        let loads: Vec<_> = (0..width).map(|_| d.add_op(LoopOp::load(12))).collect();
        let mut accs = Vec::new();
        for pair in loads.chunks(2) {
            let a = d.add_op(LoopOp::alu_lat(4));
            for &l in pair {
                d.add_dep(l, a, 0);
            }
            accs.push(a);
        }
        let sum = d.add_op(LoopOp::alu());
        for &a in &accs {
            d.add_dep(a, sum, 0);
        }
        d.add_dep(sum, sum, 1);
        d
    }

    #[test]
    fn small_loop_needs_no_differential() {
        let d = LoopDdg::dot_product(1000);
        let r = pipeline_loop(&d, &PipelineConfig::highend(32)).unwrap();
        assert!(!r.differential_enabled);
        assert_eq!(r.set_last_regs, 0);
        assert_eq!(r.spill_ops, 0);
        assert_eq!(r.remap_evaluations, 0, "no remap search on a direct loop");
        assert!(r.cycles >= 1000);
    }

    #[test]
    fn hungry_loop_spills_at_32_but_not_at_64() {
        let d = hungry_loop(24, 1000);
        let at32 = pipeline_loop(&d, &PipelineConfig::highend(32)).unwrap();
        let at64 = pipeline_loop(&d, &PipelineConfig::highend(64)).unwrap();
        assert!(
            at32.max_live_initial > 32,
            "workload must exceed 32 registers (got {})",
            at32.max_live_initial
        );
        assert!(at32.spill_ops > 0, "32-register run must spill");
        assert!(
            at64.spill_ops < at32.spill_ops,
            "more registers, fewer spills"
        );
        assert!(at64.cycles <= at32.cycles, "fewer spills, no slower");
    }

    #[test]
    fn differential_kernel_counts_set_last_regs() {
        let d = hungry_loop(24, 1000);
        let r = pipeline_loop(&d, &PipelineConfig::highend(64)).unwrap();
        if r.differential_enabled {
            // Repairs exist but are bounded by kernel size.
            assert!(r.set_last_regs <= r.kernel_ops * 3 + 1);
        }
    }

    #[test]
    fn checked_pipeline_matches_unchecked() {
        let d = hungry_loop(24, 1000);
        let plain = pipeline_loop(&d, &PipelineConfig::highend(64)).unwrap();
        let mut cfg = PipelineConfig::highend(64);
        cfg.check = true;
        let checked = pipeline_loop(&d, &cfg).unwrap();
        assert!(checked.differential_enabled, "workload must go differential");
        assert_eq!(plain, checked, "the checker must not perturb the result");
    }

    #[test]
    fn speedup_grows_then_saturates_with_reg_n() {
        let d = hungry_loop(28, 10_000);
        let base = pipeline_loop(&d, &PipelineConfig::highend(32)).unwrap();
        let mut last_cycles = base.cycles;
        for reg_n in [40u16, 48, 56, 64] {
            let r = pipeline_loop(&d, &PipelineConfig::highend(reg_n)).unwrap();
            // Near-monotone: once spills are gone the only variation left
            // is a handful of promoted set_last_reg fetch slots.
            assert!(
                r.cycles <= last_cycles + 16,
                "RegN={reg_n}: {} far above {last_cycles}",
                r.cycles
            );
            last_cycles = last_cycles.min(r.cycles);
        }
        assert!(
            last_cycles < base.cycles,
            "extra registers must pay off on a hungry loop"
        );
    }

    #[test]
    fn unschedulable_loop_reports_error() {
        let mut d = LoopDdg::new(10);
        let a = d.add_op(LoopOp::alu_lat(100));
        d.add_dep(a, a, 1);
        let mut cfg = PipelineConfig::highend(32);
        cfg.max_ii = 8;
        assert_eq!(
            pipeline_loop(&d, &cfg),
            Err(PipelineError::Unschedulable)
        );
    }
}
