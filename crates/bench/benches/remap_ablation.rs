//! Ablation D2 (DESIGN.md): the differential remapping search compared
//! across strategies — the greedy multi-start descent at several restart
//! counts, and greedy-1000 vs the portfolio (greedy + simulated annealing
//! + LNS cycle moves) at the *same* evaluation budget, measuring both the
//! wall-time and the solution quality on the same allocated function.
//!
//! Besides the criterion groups, a headline section (skipped under
//! `--test`) writes `results/remap_ablation.json` with min wall-clock and
//! final adjacency cost for each configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_adjgraph::DiffParams;
use dra_core::lowend::LowEndSetup;
use dra_regalloc::{
    allocate_program, remap_function, AllocConfig, DenseIrc, RemapConfig, RemapStrategy,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Equal-budget comparison point: roughly 1/8 of what greedy-1000
/// naturally spends on this function, so the fixed restart count starves
/// while the budget-aware portfolio still completes its racers (the same
/// regime as the fig13 sweep).
const EVAL_BUDGET: u64 = 50_000;

fn budget_cfg(strategy: RemapStrategy) -> RemapConfig {
    let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
    cfg.exhaustive_limit = 0; // always search
    cfg.starts = 1000;
    cfg.strategy = strategy;
    cfg.eval_budget = EVAL_BUDGET;
    cfg
}

fn bench_remap(c: &mut Criterion) {
    // A program allocated with 12 registers via the plain allocator, not
    // yet remapped or repaired; the remap pass is then applied with
    // different search settings.
    let mut prog = dra_workloads::benchmark("bitcount");
    let mut alloc_cfg = AllocConfig::baseline(12);
    alloc_cfg.call_clobbers = LowEndSetup::default().call_clobbers;
    allocate_program(&DenseIrc, &mut prog, &alloc_cfg, false).unwrap();
    assert_eq!(prog.count_insts(|i| i.is_set_last_reg()), 0, "input is unrepaired");
    let func = prog.funcs[0].clone();

    let mut group = c.benchmark_group("remap-search");
    group.sample_size(10);
    // Greedy restarts sweep (the paper uses 1000 starts).
    for starts in [8u32, 64, 256, 1000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("greedy-{starts}")),
            &func,
            |b, f| {
                b.iter(|| {
                    let mut f = f.clone();
                    let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
                    cfg.exhaustive_limit = 0; // force greedy
                    cfg.starts = starts;
                    black_box(remap_function(&mut f, &cfg));
                })
            },
        );
    }
    // Greedy-1000 vs the portfolio under one equal evaluation budget.
    for strategy in [RemapStrategy::Greedy, RemapStrategy::Portfolio] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("budget50k-{}", strategy.label())),
            &func,
            |b, f| {
                b.iter(|| {
                    let mut f = f.clone();
                    black_box(remap_function(&mut f, &budget_cfg(strategy)));
                })
            },
        );
    }
    group.finish();

    // Headline comparison + results/remap_ablation.json; skipped under
    // `--test` (CI smoke).
    if std::env::args().any(|a| a == "--test") {
        return;
    }

    /// Minimum wall-clock of `f` over ~0.4 s of iterations (the minimum is
    /// the noise-robust statistic: preemption only ever adds time).
    fn time(mut f: impl FnMut()) -> Duration {
        f(); // warm up
        let mut best = Duration::MAX;
        let mut iters = 0u32;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(400) || iters < 10 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed());
            iters += 1;
        }
        best
    }

    let mut json_entries = Vec::new();
    eprintln!("\nremap_ablation headline (bitcount fn 0, adjacency cost / min wall):");
    let mut report = |label: &str, cfg: &RemapConfig| {
        let mut f = func.clone();
        let stats = remap_function(&mut f, cfg);
        let wall = time(|| {
            let mut f = func.clone();
            black_box(remap_function(&mut f, cfg));
        });
        eprintln!(
            "  {label:<22} cost {:>6.1} -> {:>6.1}  evals {:>8}  starts {:>5}  min wall {wall:>10.2?}",
            stats.cost_before, stats.cost_after, stats.evaluations, stats.starts_run
        );
        json_entries.push(format!(
            concat!(
                "    {{\"config\": \"{}\", \"cost_before\": {:.6}, \"cost_after\": {:.6}, ",
                "\"evaluations\": {}, \"starts_run\": {}, \"cycle_moves\": {}, ",
                "\"winner\": \"{}\", \"min_wall_nanos\": {}}}"
            ),
            label,
            stats.cost_before,
            stats.cost_after,
            stats.evaluations,
            stats.starts_run,
            stats.cycle_moves,
            stats.winner.label(),
            wall.as_nanos()
        ));
        (stats.cost_after, wall)
    };

    for starts in [8u32, 64, 256, 1000] {
        let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
        cfg.exhaustive_limit = 0;
        cfg.starts = starts;
        report(&format!("greedy-{starts}"), &cfg);
    }
    let (g_cost, g_wall) = report("budget50k-greedy", &budget_cfg(RemapStrategy::Greedy));
    let (p_cost, p_wall) = report("budget50k-portfolio", &budget_cfg(RemapStrategy::Portfolio));
    eprintln!(
        "  equal-budget verdict: portfolio cost {p_cost:.1} vs greedy {g_cost:.1}, \
         wall {p_wall:.2?} vs {g_wall:.2?}"
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"remap_ablation\",").unwrap();
    writeln!(json, "  \"eval_budget\": {EVAL_BUDGET},").unwrap();
    writeln!(
        json,
        "  \"portfolio_cost\": {p_cost:.6}, \"greedy_cost\": {g_cost:.6},"
    )
    .unwrap();
    writeln!(json, "  \"configs\": [").unwrap();
    writeln!(json, "{}", json_entries.join(",\n")).unwrap();
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    // Benches run with the package directory as cwd; anchor the output at
    // the workspace root next to the other results files.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/remap_ablation.json");
    match std::fs::write(out, &json) {
        Ok(()) => eprintln!("wrote results/remap_ablation.json"),
        Err(e) => eprintln!("could not write results/remap_ablation.json: {e}"),
    }
}

criterion_group!(benches, bench_remap);
criterion_main!(benches);
