//! Ablation D2 (DESIGN.md): the differential remapping search compared
//! across strategies — the greedy multi-start descent at several restart
//! counts, and greedy-1000 vs the portfolio (greedy + simulated annealing
//! + LNS cycle moves) at the *same* evaluation budget, measuring the
//! wall-time on the same allocated function. `fig13` reports the
//! equal-budget solution quality on all ten benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_adjgraph::DiffParams;
use dra_core::lowend::LowEndSetup;
use dra_regalloc::{
    allocate_program, remap_function, AllocConfig, DenseIrc, RemapConfig, RemapStrategy,
};
use std::hint::black_box;

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
}

criterion_group!(benches, bench_remap);
criterion_main!(benches);
