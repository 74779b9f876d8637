//! The Section 10.2 pipeline: software-pipeline a loop suite at a swept
//! `RegN` and aggregate the Table 2 / Table 3 quantities.

use crate::batch::{run_batch_isolated, CellOutcome};
use crate::telemetry::Telemetry;
use dra_swp::{pipeline_loop, PipelineConfig, PipelinedLoop};
use dra_workloads::SuiteLoop;

/// Fraction of total execution time spent in loops (the paper: >80%).
pub const LOOP_TIME_FRACTION: f64 = 0.8;

/// Fraction of static code occupied by the studied loops (small — loops
/// are hot, not big).
pub const LOOP_CODE_FRACTION: f64 = 0.10;

/// Aggregated results over a loop suite at one `RegN`.
#[derive(Clone, Debug, PartialEq)]
pub struct HighEndAggregate {
    /// The sweep point.
    pub reg_n: u16,
    /// Cycles summed over the *optimized* loops (those that needed more
    /// than the direct-encodable registers at baseline).
    pub optimized_cycles: u64,
    /// Cycles summed over all loops.
    pub all_cycles: u64,
    /// Spill DDG operations in optimized loops.
    pub optimized_spills: usize,
    /// Static instruction count of the optimized-loop kernels (including
    /// spill ops and promoted `set_last_reg`s).
    pub optimized_code_insts: usize,
    /// Static instruction count over all loop kernels.
    pub all_code_insts: usize,
    /// Total `set_last_reg`s promoted.
    pub set_last_regs: usize,
    /// Number of loops flagged as optimized (register-hungry).
    pub optimized_loops: usize,
    /// Loops processed.
    pub total_loops: usize,
}

impl HighEndAggregate {
    /// Whole-program cycles, assuming loops are [`LOOP_TIME_FRACTION`] of
    /// execution at the baseline.
    pub fn overall_cycles(&self, baseline_all_cycles: u64) -> f64 {
        // Non-loop time is constant across sweep points.
        let nonloop =
            baseline_all_cycles as f64 * (1.0 - LOOP_TIME_FRACTION) / LOOP_TIME_FRACTION;
        self.all_cycles as f64 + nonloop
    }

    /// Code growth of the optimized loops relative to a baseline
    /// aggregate, in percent.
    pub fn optimized_code_growth(&self, baseline: &HighEndAggregate) -> f64 {
        100.0 * (self.optimized_code_insts as f64 - baseline.optimized_code_insts as f64)
            / baseline.optimized_code_insts.max(1) as f64
    }

    /// Code growth over all loops, percent.
    pub fn all_loops_code_growth(&self, baseline: &HighEndAggregate) -> f64 {
        100.0 * (self.all_code_insts as f64 - baseline.all_code_insts as f64)
            / baseline.all_code_insts.max(1) as f64
    }

    /// Code growth over the entire program, percent (loops are only
    /// [`LOOP_CODE_FRACTION`] of the binary).
    pub fn overall_code_growth(&self, baseline: &HighEndAggregate) -> f64 {
        self.all_loops_code_growth(baseline) * LOOP_CODE_FRACTION
    }
}

/// Software-pipeline every loop of the suite at every `reg_ns` point and
/// aggregate each point over the loops that pipelined successfully at
/// **every** point, so the cycle/spill/code totals are directly
/// comparable (on a single point, that is every loop that pipelined).
///
/// Loops whose initial register requirement fits the direct-encodable 32
/// registers are compiled identically at every sweep point (differential
/// encoding stays off — Section 8.2); the "optimized" set is those that
/// exceeded 32.
///
/// `threads` workers pipeline the flat (point × loop) grid
/// ([`crate::batch::run_batch_isolated`]; `0` = one per CPU), and the
/// aggregates are identical at any thread count. A poisoned loop cell
/// becomes a hole (dropping that loop from every point's common set),
/// not an abort of the whole sweep.
///
/// The telemetry holds the per-point aggregates as `swp.*` counters
/// (summed over the sweep, so schedule-invariant — the pipeliner is
/// deterministic per loop), the contained cell panics as
/// `swp.cell_panics`, the kernel remapping work as `remap.evaluations`
/// (summed over every pipelined cell, common set or not) and a
/// wall-clock `sweep` span around the whole grid.
pub fn run_highend_sweep_with_telemetry(
    suite: &[SuiteLoop],
    reg_ns: &[u16],
    threads: usize,
) -> (Vec<HighEndAggregate>, Telemetry) {
    let mut t = Telemetry::new();
    // One flat batch over every (point, loop) cell keeps all workers busy
    // even when one sweep point dominates the cost.
    let cells: Vec<(u16, usize)> = reg_ns
        .iter()
        .flat_map(|&r| (0..suite.len()).map(move |i| (r, i)))
        .collect();
    let (outcomes, stats) = t.time("sweep", || {
        run_batch_isolated(&cells, threads, 0, |_, &(reg_n, i)| {
            let cfg = PipelineConfig::highend(reg_n);
            pipeline_loop(&suite[i].ddg, &cfg).ok()
        })
    });
    let mut flat = outcomes.into_iter().map(|o| match o {
        CellOutcome::Ok(r) => r,
        CellOutcome::Failed { .. } | CellOutcome::Cancelled { .. } => None,
    });
    let per_point: Vec<Vec<Option<PipelinedLoop>>> = reg_ns
        .iter()
        .map(|_| flat.by_ref().take(suite.len()).collect())
        .collect();
    let common = |i: usize| per_point.iter().all(|v| v[i].is_some());
    let sweep: Vec<HighEndAggregate> = reg_ns
        .iter()
        .zip(&per_point)
        .map(|(&reg_n, results)| aggregate(reg_n, results, &common))
        .collect();
    let remap_evaluations = per_point
        .iter()
        .flatten()
        .flatten()
        .map(|r| r.remap_evaluations)
        .sum();
    t.count("swp.sweep_points", sweep.len() as u64);
    t.count("swp.cell_panics", stats.failed);
    t.count("remap.evaluations", remap_evaluations);
    for agg in &sweep {
        t.count("swp.loops_total", agg.total_loops as u64);
        t.count("swp.loops_optimized", agg.optimized_loops as u64);
        t.count("swp.set_last_regs", agg.set_last_regs as u64);
        t.count("swp.spills_optimized", agg.optimized_spills as u64);
        t.count("swp.code_insts", agg.all_code_insts as u64);
        t.count("swp.cycles", agg.all_cycles);
    }
    (sweep, t)
}

fn aggregate(
    reg_n: u16,
    results: &[Option<PipelinedLoop>],
    include: &dyn Fn(usize) -> bool,
) -> HighEndAggregate {
    let mut agg = HighEndAggregate {
        reg_n,
        optimized_cycles: 0,
        all_cycles: 0,
        optimized_spills: 0,
        optimized_code_insts: 0,
        all_code_insts: 0,
        set_last_regs: 0,
        optimized_loops: 0,
        total_loops: 0,
    };
    for (i, r) in results.iter().enumerate() {
        if !include(i) {
            continue;
        }
        let Some(r) = r else { continue };
        agg.total_loops += 1;
        let insts = r.kernel_ops + r.set_last_regs;
        agg.all_cycles += r.cycles;
        agg.all_code_insts += insts;
        agg.set_last_regs += r.set_last_regs;
        // "Optimized" = needed more than the 32 direct registers before
        // spilling, the population Table 2's second column tracks.
        if r.max_live_initial > 32 {
            agg.optimized_loops += 1;
            agg.optimized_cycles += r.cycles;
            agg.optimized_spills += r.spill_ops;
            agg.optimized_code_insts += insts;
        }
    }
    agg
}

/// Percentage speedup of `new` cycles over `old` cycles.
pub fn speedup_percent(old: f64, new: f64) -> f64 {
    if new <= 0.0 {
        return 0.0;
    }
    100.0 * (old - new) / new
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_workloads::{generate_loop_suite, LoopSuiteConfig};

    /// The aggregate of a one-point sweep: every loop that pipelined.
    fn point(suite: &[SuiteLoop], reg_n: u16) -> HighEndAggregate {
        run_highend_sweep_with_telemetry(suite, &[reg_n], 0).0.remove(0)
    }

    fn suite(n: usize) -> Vec<SuiteLoop> {
        generate_loop_suite(&LoopSuiteConfig {
            n_loops: n,
            hungry_fraction: 0.11,
            seed: 7,
        })
    }

    #[test]
    fn sweep_improves_optimized_loops() {
        let s = suite(40);
        let base = point(&s, 32);
        let wide = point(&s, 64);
        assert_eq!(base.total_loops, wide.total_loops);
        assert!(base.optimized_loops > 0, "suite contains hungry loops");
        assert!(
            wide.optimized_cycles < base.optimized_cycles,
            "64 registers must speed up the hungry loops: {} vs {}",
            wide.optimized_cycles,
            base.optimized_cycles
        );
        assert!(
            wide.optimized_spills < base.optimized_spills,
            "spills must drop: {} vs {}",
            wide.optimized_spills,
            base.optimized_spills
        );
    }

    #[test]
    fn common_loops_unchanged_across_sweep() {
        let s = suite(40);
        let base = point(&s, 32);
        let wide = point(&s, 48);
        let base_common = base.all_cycles - base.optimized_cycles;
        let wide_common = wide.all_cycles - wide.optimized_cycles;
        assert_eq!(
            base_common, wide_common,
            "loops fitting 32 registers compile identically everywhere"
        );
    }

    #[test]
    fn set_last_regs_only_in_differential_points() {
        let s = suite(30);
        let base = point(&s, 32);
        assert_eq!(base.set_last_regs, 0, "RegN=32 is direct");
        let wide = point(&s, 48);
        assert!(wide.set_last_regs > 0, "differential kernels need repairs");
    }

    #[test]
    fn speedup_math() {
        assert_eq!(speedup_percent(120.0, 100.0), 20.0);
        assert_eq!(speedup_percent(100.0, 100.0), 0.0);
        assert_eq!(speedup_percent(100.0, 0.0), 0.0);
    }

    #[test]
    fn overall_cycles_adds_constant_nonloop_time() {
        let s = suite(20);
        let base = point(&s, 32);
        let overall = base.overall_cycles(base.all_cycles);
        assert!(overall > base.all_cycles as f64);
        // 80% loops => total = loops / 0.8.
        let expected = base.all_cycles as f64 / 0.8;
        assert!((overall - expected).abs() < 1.0);
    }

    #[test]
    fn code_growth_relative_to_baseline() {
        let s = suite(30);
        let base = point(&s, 32);
        let wide = point(&s, 48);
        let overall = wide.overall_code_growth(&base);
        let all = wide.all_loops_code_growth(&base);
        assert!(
            overall.abs() <= all.abs() || all == 0.0,
            "overall growth is damped by the loop code fraction"
        );
    }
}
