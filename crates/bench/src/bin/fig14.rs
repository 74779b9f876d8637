//! Figure 14 — speedup over the baseline on the 5-stage machine.
//!
//! Paper averages: remapping 4.5%, select 9.7%, coalesce 12.1%, O-spill
//! 4.1%. Shape: coalesce best, select close behind, remapping and O-spill
//! modest (remapping's wins are eaten by its `set_last_reg`s).

use dra_bench::{average, emit_telemetry, matrix_setup, render_table};
use dra_core::batch::run_lowend_matrix_with_telemetry;
use dra_core::lowend::Approach;
use dra_workloads::benchmark_names;

fn main() {
    let setup = matrix_setup();
    let others = [
        Approach::Remapping,
        Approach::Select,
        Approach::OSpill,
        Approach::Coalesce,
    ];
    let approaches = [Approach::Baseline]
        .iter()
        .chain(&others)
        .copied()
        .collect::<Vec<_>>();
    let names = benchmark_names();
    let (matrix, telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
    emit_telemetry(&telemetry, "fig14");

    let mut rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); others.len()];
    for (name, runs) in names.iter().zip(&matrix) {
        let base = runs[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}/baseline: {e}"));
        let mut row = vec![name.to_string()];
        for (ai, (&a, run)) in others.iter().zip(&runs[1..]).enumerate() {
            let run = run
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            assert_eq!(
                run.ret_value, base.ret_value,
                "{name}/{}: result diverged from baseline",
                a.label()
            );
            let speedup = 100.0 * (base.cycles as f64 - run.cycles as f64) / run.cycles as f64;
            columns[ai].push(speedup);
            row.push(format!("{speedup:+.2}%"));
        }
        rows.push(row);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    for col in &columns {
        avg_row.push(format!("{:+.2}%", average(col)));
    }
    rows.push(avg_row);

    let mut header = vec!["benchmark".to_string()];
    header.extend(others.iter().map(|a| a.label().to_string()));
    print!(
        "{}",
        render_table("Figure 14: speedup over baseline", &header, &rows)
    );
    println!("\npaper averages: remapping +4.5  select +9.7  O-spill +4.1  coalesce +12.1");
}
