//! Table 2 — loop speedups on the VLIW model across the `RegN` sweep
//! (`DiffN = 32`; `RegN = 32` is the no-differential baseline).
//!
//! Paper shape: large speedups (>70% at high `RegN`) for the optimized
//! (register-hungry) loops; all-loops speedup 10.23% at `RegN = 40` up to
//! 17.24% at 64, saturating past 48; overall close to all-loops because
//! loops dominate execution.

use dra_bench::{batch_threads, emit_telemetry, pct, render_table, suite_size};
use dra_core::highend::{run_highend_sweep_with_telemetry, speedup_percent};
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
    emit_telemetry(&telemetry, "table2");
    let base = &sweep[0];
    let base_overall = base.overall_cycles(base.all_cycles);

    let mut rows = Vec::new();
    for agg in &sweep[1..] {
        let opt = speedup_percent(base.optimized_cycles as f64, agg.optimized_cycles as f64);
        let all = speedup_percent(base.all_cycles as f64, agg.all_cycles as f64);
        let overall = speedup_percent(base_overall, agg.overall_cycles(base.all_cycles));
        rows.push(vec![
            format!("{}", agg.reg_n),
            pct(opt),
            pct(all),
            pct(overall),
        ]);
    }

    print!(
        "{}",
        render_table(
            &format!(
                "Table 2: speedup over RegN=32 ({} loops, {} optimized)",
                base.total_loops, base.optimized_loops
            ),
            &[
                "RegN".to_string(),
                "optimized loops".to_string(),
                "all loops".to_string(),
                "overall".to_string(),
            ],
            &rows
        )
    );
    println!("\npaper shape: optimized > +70% at high RegN; all-loops +10.23% (40) -> +17.24% (64), saturating past 48");
}
