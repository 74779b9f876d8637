//! Ablation D2 (DESIGN.md): the paper's greedy multi-start descent at
//! several restart counts, measuring the wall-time on the same allocated
//! function.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_adjgraph::DiffParams;
use dra_core::lowend::LowEndSetup;
use dra_regalloc::{allocate_program, remap_function, AllocConfig, DenseIrc, RemapConfig};
use std::hint::black_box;

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
                    black_box(remap_function(&mut f, &cfg, None));
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_remap);
criterion_main!(benches);
