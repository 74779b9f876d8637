//! Figure 13 — code size normalized to the baseline.
//!
//! Paper shape: remapping grows code ~7% (its many `set_last_reg`s
//! outweigh the spill savings); select stays within ~1%; O-spill shrinks
//! ~4% and coalesce ~2% (fewer spill instructions, modest repair counts).
//!
//! Besides the text table on stdout, writes `results/fig13.json` with the
//! raw ratios and the remapping-search work counters (`swap_delta`
//! evaluations, restarts executed, search wall-clock) so tooling can track
//! the search cost alongside the code-size outcome.

use dra_adjgraph::DiffParams;
use dra_bench::{average, emit_telemetry, matrix_setup, render_table};
use dra_core::batch::run_lowend_matrix_with_telemetry;
use dra_core::lowend::{Approach, LowEndRun};
use dra_core::telemetry::JsonWriter;
use dra_core::{CompileSession, Telemetry};
use dra_regalloc::{remap_function, RemapConfig};
use dra_workloads::benchmark_names;

/// Remap-search work aggregated over a run's functions.
fn remap_totals(run: &LowEndRun) -> (u64, u32, u64) {
    run.remap.iter().fold((0, 0, 0), |(e, s, n), st| {
        (e + st.evaluations, s + st.starts_run, n + st.search_nanos)
    })
}

fn main() {
    let setup = matrix_setup();
    let others = [
        Approach::Remapping,
        Approach::Select,
        Approach::OSpill,
        Approach::Coalesce,
    ];
    // Column 0 is the baseline the ratios divide by.
    let approaches = [Approach::Baseline]
        .iter()
        .chain(&others)
        .copied()
        .collect::<Vec<_>>();
    let names = benchmark_names();
    let (matrix, telemetry) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
    emit_telemetry(&telemetry, "fig13");

    // Fixed-precision ratios and costs go in as preformatted numbers.
    let fixed = |v: f64| format!("{v:.6}");
    let mut json = JsonWriter::pretty();
    json.obj().key("figure").str("fig13");
    json.key("remap_starts").u64(setup.remap_starts.into());
    json.key("remap_threads").u64(setup.remap_threads as u64);
    json.key("benchmarks").arr();
    let mut rows = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); others.len()];
    for (name, runs) in names.iter().zip(&matrix) {
        let base = runs[0]
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}/baseline: {e}"));
        let mut row = vec![name.to_string()];
        json.obj().key("name").str(name);
        json.key("baseline_code_bits").u64(base.code_bits).key("approaches").arr();
        for (ai, (&a, run)) in others.iter().zip(&runs[1..]).enumerate() {
            let run = run
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.label()));
            let ratio = run.code_bits as f64 / base.code_bits as f64;
            columns[ai].push(ratio);
            row.push(format!("{ratio:.3}"));
            let (evals, starts, nanos) = remap_totals(run);
            json.obj().key("approach").str(a.label());
            json.key("code_ratio").raw(&fixed(ratio));
            json.key("code_bits").u64(run.code_bits);
            json.key("remap_evaluations").u64(evals);
            json.key("remap_starts_run").u64(starts.into());
            json.key("remap_search_nanos").u64(nanos).end();
        }
        json.end().end();
        rows.push(row);
    }
    json.end();
    let mut avg_row = vec!["AVERAGE".to_string()];
    for col in &columns {
        avg_row.push(format!("{:.3}", average(col)));
    }
    rows.push(avg_row);

    let mut header = vec!["benchmark".to_string()];
    header.extend(others.iter().map(|a| a.label().to_string()));
    print!(
        "{}",
        render_table(
            "Figure 13: code size normalized to baseline (1.0 = equal)",
            &header,
            &rows
        )
    );
    println!("\npaper shape: remapping ~1.07, select <= 1.01, O-spill ~0.96, coalesce ~0.98");

    // --- Optimality gap vs the certified exhaustive search --------------
    //
    // On the direct-encoded (`RegN = 8`) baseline allocations, the
    // exhaustive enumeration certifies the true optimum of the remap
    // objective at `DiffN = 4`, which measures the greedy multistart's
    // absolute gap.
    let gap_params = DiffParams::new(8, 4);
    let session = CompileSession::new(setup);
    json.key("optimality_gap").arr();
    // Two regimes: a tight budget that cuts descents short, and an ample
    // one that lets every descent finish.
    for gap_budget in [2_000u64, 50_000] {
        let mut gap_rows = Vec::new();
        for name in &names {
            let mut prog = dra_workloads::benchmark(name);
            session
                .compile_program(&mut prog, Approach::Baseline, &mut Telemetry::new())
                .unwrap_or_else(|e| panic!("{name}/baseline: {e}"));
            let mut exact_cfg = RemapConfig::new(gap_params);
            exact_cfg.exhaustive_limit = 8;
            let mut greedy_cfg = RemapConfig::new(gap_params);
            greedy_cfg.exhaustive_limit = 0; // force the greedy multistart
            greedy_cfg.starts = 64;
            greedy_cfg.eval_budget = gap_budget;
            let (mut optimal, mut cost) = (0.0f64, 0.0f64);
            for f in &prog.funcs {
                let st = remap_function(&mut f.clone(), &exact_cfg, None);
                assert!(
                    st.certified,
                    "{name}/{}: the exhaustive search must certify RegN = 8 instances",
                    f.name
                );
                optimal += st.cost_after;
                cost += remap_function(&mut f.clone(), &greedy_cfg, None).cost_after;
            }
            let gap = cost - optimal;
            gap_rows.push(vec![
                name.to_string(),
                format!("{optimal:.1}"),
                format!("{cost:.1} (+{gap:.1})"),
            ]);
            json.obj().key("name").str(name).key("eval_budget").u64(gap_budget);
            json.key("optimal_cost").raw(&fixed(optimal));
            json.key("greedy_cost").raw(&fixed(cost));
            json.key("greedy_gap").raw(&fixed(gap)).end();
        }
        print!(
            "\n{}",
            render_table(
                &format!(
                    "Remap optimality gap vs certified exhaustive search \
                     (RegN=8, DiffN=4, 64 starts, {gap_budget} evals)"
                ),
                &["benchmark".into(), "optimal".into(), "greedy (gap)".into()],
                &gap_rows
            )
        );
    }

    json.end().end();
    match std::fs::write("results/fig13.json", json.finish()) {
        Ok(()) => eprintln!("wrote results/fig13.json"),
        Err(e) => eprintln!("could not write results/fig13.json: {e}"),
    }
}
