//! Table 3 — spills in optimized loops and code growth across the `RegN`
//! sweep.
//!
//! Paper shape: spills drop steeply from `RegN = 32` to 40/48; code growth
//! is visible in the optimized loops (spill savings vs `set_last_reg`
//! additions, with a *shrink* possible at `RegN = 40`), but the overall
//! binary grows at most ~1.13% because the optimized loops are a small
//! slice of the code.

use dra_bench::{batch_threads, emit_telemetry, pct, render_table, suite_size};
use dra_core::highend::run_highend_sweep_with_telemetry;
use dra_workloads::{generate_loop_suite, LoopSuiteConfig};

fn main() {
    let n = suite_size();
    eprintln!("generating {n} loops (set DRA_LOOPS to change)…");
    let suite = generate_loop_suite(&LoopSuiteConfig {
        n_loops: n,
        ..LoopSuiteConfig::default()
    });

    eprintln!("pipelining the RegN sweep (this is the long part)…");
    let (sweep, telemetry) =
        run_highend_sweep_with_telemetry(&suite, &[32, 40, 48, 56, 64], batch_threads());
    emit_telemetry(&telemetry, "table3");
    let base = &sweep[0];

    let mut rows = vec![vec![
        "32".to_string(),
        format!("{}", base.optimized_spills),
        pct(0.0),
        pct(0.0),
        pct(0.0),
    ]];
    for agg in &sweep[1..] {
        rows.push(vec![
            format!("{}", agg.reg_n),
            format!("{}", agg.optimized_spills),
            pct(agg.optimized_code_growth(base)),
            pct(agg.all_loops_code_growth(base)),
            pct(agg.overall_code_growth(base)),
        ]);
    }

    print!(
        "{}",
        render_table(
            &format!(
                "Table 3: spills and code growth ({} loops, {} optimized)",
                base.total_loops, base.optimized_loops
            ),
            &[
                "RegN".to_string(),
                "spills (optimized loops)".to_string(),
                "growth (optimized)".to_string(),
                "growth (all loops)".to_string(),
                "growth (all code)".to_string(),
            ],
            &rows
        )
    );
    println!("\npaper shape: spills fall steeply by RegN=48; overall code growth <= ~1.13%, possible shrink at RegN=40");
}
