//! Integration of the high-end (Table 2 / Table 3) pipeline on a reduced
//! loop suite: the qualitative shapes the paper reports must hold.

use dra_core::highend::{run_highend_sweep_with_telemetry, speedup_percent};
use dra_workloads::{generate_loop_suite, LoopSuiteConfig};

/// Debug builds run the pipelines ~20x slower; shrink the suites so the
/// default `cargo test --workspace` stays tractable while release/CI runs
/// exercise the full sizes.
fn scaled(n: usize) -> usize {
    if cfg!(debug_assertions) {
        (n / 2).max(20)
    } else {
        n
    }
}

fn suite(n: usize) -> Vec<dra_workloads::SuiteLoop> {
    generate_loop_suite(&LoopSuiteConfig {
        n_loops: scaled(n),
        hungry_fraction: 0.11,
        seed: 0x5bec2000,
    })
}

#[test]
fn sweep_shapes_match_the_paper() {
    let s = suite(60);
    let sweep = run_highend_sweep_with_telemetry(&s, &[32, 40, 48, 56, 64], 0).0;
    let base = &sweep[0];
    assert!(base.optimized_loops > 0);
    assert!(
        (base.optimized_loops as f64) / (base.total_loops as f64) < 0.25,
        "hungry loops are a minority"
    );

    let mut prev_opt_speedup = 0.0;
    let mut speedups = Vec::new();
    for agg in &sweep[1..] {
        let reg_n = agg.reg_n;
        let opt = speedup_percent(base.optimized_cycles as f64, agg.optimized_cycles as f64);
        let all = speedup_percent(base.all_cycles as f64, agg.all_cycles as f64);
        assert!(
            opt > -1.0,
            "RegN={reg_n}: optimized loops must not materially slow down ({opt}%)"
        );
        assert!(
            opt + 1.0 >= prev_opt_speedup,
            "RegN={reg_n}: speedup should not collapse ({opt} after {prev_opt_speedup})"
        );
        assert!(
            all <= opt + 1e-9,
            "all-loops speedup is diluted by untouched loops"
        );
        // Spills never increase with more registers.
        assert!(agg.optimized_spills <= base.optimized_spills);
        prev_opt_speedup = opt.max(prev_opt_speedup);
        speedups.push(opt);
    }
    // The sweep must be worth something by the top end.
    assert!(
        *speedups.last().unwrap() > 10.0,
        "optimized-loop speedup at RegN=64 too small: {speedups:?}"
    );
    // Saturation: the 56 -> 64 gain is smaller than the 32 -> 40 gain.
    let first_gain = speedups[0];
    let last_gain = speedups[3] - speedups[2];
    assert!(
        last_gain < first_gain || first_gain > 30.0,
        "speedup should saturate: first {first_gain}, last step {last_gain}"
    );
}

#[test]
fn code_growth_is_bounded_overall() {
    let s = suite(60);
    let sweep = run_highend_sweep_with_telemetry(&s, &[32, 40, 64], 0).0;
    let base = &sweep[0];
    for agg in &sweep[1..] {
        let overall = agg.overall_code_growth(base);
        assert!(
            overall.abs() < 5.0,
            "RegN={}: overall code growth {overall}% out of the paper's ballpark",
            agg.reg_n
        );
    }
}

#[test]
fn common_loops_identical_across_sweep_points() {
    let s = suite(40);
    let sweep = run_highend_sweep_with_telemetry(&s, &[40, 64], 0).0;
    let a_common = sweep[0].all_cycles - sweep[0].optimized_cycles;
    let b_common = sweep[1].all_cycles - sweep[1].optimized_cycles;
    assert_eq!(a_common, b_common, "selective enabling leaves them alone");
}

#[test]
fn set_last_regs_appear_only_with_extra_registers() {
    let s = suite(40);
    let sweep = |reg_n| run_highend_sweep_with_telemetry(&s, &[reg_n], 0).0;
    assert_eq!(sweep(32)[0].set_last_regs, 0);
    assert!(sweep(56)[0].set_last_regs > 0);
}
