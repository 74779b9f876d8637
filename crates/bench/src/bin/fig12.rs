//! Figure 12 — the `set_last_reg` cost: static repair instructions as a
//! percentage of all instructions, for the three differential setups.
//!
//! Paper averages: remapping 10.41%, select 4.21%, coalesce 3.04%. Shape:
//! the post-pass pays by far the most; coalesce edges out select.

use dra_bench::{average, emit_telemetry, matrix_setup, render_table};
use dra_core::batch::run_lowend_matrix_with_telemetry;
use dra_core::lowend::Approach;
use dra_workloads::benchmark_names;

fn main() {
    let setup = matrix_setup();
    let approaches = [Approach::Remapping, Approach::Select, Approach::Coalesce];
    let names = benchmark_names();
    let (matrix, telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
    emit_telemetry(&telemetry, "fig12");

    let mut rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); approaches.len()];
    for (name, runs) in names.iter().zip(&matrix) {
        let mut row = vec![name.to_string()];
        for (ai, (&a, run)) in approaches.iter().zip(runs).enumerate() {
            let run = run
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            let p = run.cost_percent();
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
    header.extend(approaches.iter().map(|a| a.label().to_string()));
    print!(
        "{}",
        render_table("Figure 12: set_last_reg cost percentage", &header, &rows)
    );
    println!("\npaper averages: remapping 10.41  select 4.21  coalesce 3.04");
}
