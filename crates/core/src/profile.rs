//! Profile-guided differential allocation.
//!
//! Section 4 of the paper: "profile information could be incorporated to
//! improve the cost estimation. Different adjacent access pairs have
//! different execution frequencies. For a better estimation, the frequency
//! should be reflected in the edge weights." This module closes that loop:
//!
//! 1. compile the program under the baseline and run it, collecting
//!    per-block execution counts from the simulator;
//! 2. install those counts as block frequencies (replacing the static
//!    10^loop-depth estimate);
//! 3. recompile with a differential approach — the adjacency-graph edge
//!    weights, spill costs, and coalesce scores now reflect reality.

use crate::lowend::{compile_and_run, compile_and_simulate, Approach, LowEndSetup, PipelineError};
use crate::telemetry::Telemetry;
use crate::LowEndRun;
use dra_ir::Program;
use dra_workloads::benchmark;
use std::collections::HashMap;

/// Install measured block counts as block frequencies.
///
/// Blocks the profile never saw keep a small nonzero weight so their edges
/// still matter slightly (cold paths should not become cost-free to
/// violate — they may still execute under other inputs). Returns how many
/// blocks got that floor: a profile that covers almost nothing silently
/// degenerates to near-uniform weights, and the caller should be able to
/// see that (the pipeline records it as `profile.cold_blocks`).
pub fn apply_profile(p: &mut Program, counts: &HashMap<(u32, u32), u64>) -> usize {
    let mut cold = 0;
    for (fi, f) in p.funcs.iter_mut().enumerate() {
        for (bi, b) in f.blocks.iter_mut().enumerate() {
            let c = counts.get(&(fi as u32, bi as u32)).copied().unwrap_or(0);
            if c == 0 {
                cold += 1;
            }
            b.freq = (c as f64).max(0.1);
        }
    }
    cold
}

/// Compile `name` under `approach` with profile-guided frequencies: a
/// baseline run supplies the profile, the differential recompilation
/// consumes it.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_and_run_profiled(
    name: &str,
    approach: Approach,
    setup: &LowEndSetup,
) -> Result<LowEndRun, PipelineError> {
    // Profiling run (baseline allocation: any allocation yields the same
    // block counts, since allocation preserves control flow).
    let profile_run = compile_and_run(name, Approach::Baseline, setup)?;

    let mut telemetry = Telemetry::new();
    let mut p = telemetry.time("parse", || benchmark(name));
    let cold = apply_profile(&mut p, &profile_run.block_counts);
    telemetry.count("profile.cold_blocks", cold as u64);
    compile_and_simulate(&p, None, approach, setup, None, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_installs_dynamic_frequencies() {
        let setup = LowEndSetup::default();
        let run = compile_and_run("crc32", Approach::Baseline, &setup).unwrap();
        let mut p = benchmark("crc32");
        let cold = apply_profile(&mut p, &run.block_counts);
        // Loop bodies must now carry their real trip counts, far above
        // the static estimate's 10.
        let max_freq = p
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.freq)
            .fold(0.0f64, f64::max);
        assert!(max_freq > 10.0, "hottest block freq {max_freq}");
        // Unexecuted blocks keep the floor weight.
        let min_freq = p
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.freq)
            .fold(f64::INFINITY, f64::min);
        assert!(min_freq >= 0.1);
        // The reported cold count is exactly the number of floored blocks
        // (an executed block counts at least 1.0, so 0.1 only means cold).
        let floored = p
            .funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .filter(|b| b.freq == 0.1)
            .count();
        assert_eq!(cold, floored);
    }

    #[test]
    fn profiled_runs_report_cold_blocks() {
        let setup = LowEndSetup::default();
        let run = compile_and_run_profiled("crc32", Approach::Select, &setup).unwrap();
        // The counter must exist even at zero — a fully-covered program
        // and a missing counter must be distinguishable.
        assert!(
            run.telemetry.counters().contains_key("profile.cold_blocks"),
            "profile.cold_blocks missing from {:?}",
            run.telemetry.counters().keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn profiled_compilation_is_correct_and_competitive() {
        let setup = LowEndSetup::default();
        for name in ["crc32", "bitcount"] {
            let static_run = compile_and_run(name, Approach::Select, &setup).unwrap();
            let profiled = compile_and_run_profiled(name, Approach::Select, &setup).unwrap();
            assert_eq!(static_run.ret_value, profiled.ret_value, "{name}");
            // The profile should not make things dramatically worse; it
            // usually helps the dynamic set_last_reg count.
            assert!(
                profiled.cycles as f64 <= static_run.cycles as f64 * 1.10,
                "{name}: profiled {} vs static {}",
                profiled.cycles,
                static_run.cycles
            );
        }
    }
}
