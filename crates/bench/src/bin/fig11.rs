//! Figure 11 — percentage of static spill instructions over the entire
//! code, per benchmark, for the five setups.
//!
//! Paper averages: baseline 10.44%, remapping 6.87%, select 6.84%,
//! O-spill 7.32%, coalesce 5.55%. The shape to reproduce: every
//! differential setup well below the baseline; coalesce lowest; remapping
//! and select nearly tied; O-spill between them and the baseline.

use dra_bench::{average, emit_telemetry, matrix_setup, render_table};
use dra_core::batch::run_lowend_matrix_with_telemetry;
use dra_core::lowend::Approach;
use dra_workloads::benchmark_names;

fn main() {
    let setup = matrix_setup();
    let names = benchmark_names();
    let (matrix, telemetry) = run_lowend_matrix_with_telemetry(&names, &Approach::ALL, &setup);
    emit_telemetry(&telemetry, "fig11");

    let mut rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); Approach::ALL.len()];
    for (name, runs) in names.iter().zip(&matrix) {
        let mut row = vec![name.to_string()];
        for (ai, (&a, run)) in Approach::ALL.iter().zip(runs).enumerate() {
            let run = run
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            let p = run.spill_percent();
            columns[ai].push(p);
            row.push(format!("{p:.2}%"));
        }
        rows.push(row);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    for col in &columns {
        avg_row.push(format!("{:.2}%", average(col)));
    }
    rows.push(avg_row);

    let mut header = vec!["benchmark".to_string()];
    header.extend(Approach::ALL.iter().map(|a| a.label().to_string()));
    print!(
        "{}",
        render_table("Figure 11: static spill percentage", &header, &rows)
    );
    println!(
        "\npaper averages: baseline 10.44  remapping 6.87  select 6.84  O-spill 7.32  coalesce 5.55"
    );
}
