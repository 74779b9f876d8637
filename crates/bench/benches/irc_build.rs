//! Interference-graph construction and coloring: the seed's
//! `HashSet`-of-pairs representation vs the triangular bit-matrix +
//! adjacency-list hybrid, across workload sizes.
//!
//! Three variants per size:
//!
//! * `hashset-build/S` — the historical algorithm
//!   (`interference::reference::build`): per-node `HashSet<u32>`
//!   adjacency sized to `vreg_count + MAX_PREGS`.
//! * `bitmatrix-build/S` — `InterferenceGraph::build`: O(1) membership
//!   bit-matrix plus compact `Vec<u32>` adjacency, sized to the live
//!   entity count.
//! * `build+color/S` — the full allocation (`irc_allocate`) on the new
//!   representation: graph build, worklist coloring, coalescing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_ir::{Function, Liveness, PReg, RegClass};
use dra_regalloc::interference::{reference, InterferenceGraph};
use dra_regalloc::{irc_allocate, AllocConfig};
use dra_workloads::mibench::{generate, BenchSpec};
use std::hint::black_box;

/// Call-clobbered registers, matching `LowEndSetup::default`.
const CLOBBERS: [PReg; 2] = [PReg(0), PReg(1)];

/// A synthetic workload of roughly increasing interference-graph size.
fn spec(name: &'static str, pressure: usize, block_len: usize, loops: usize) -> BenchSpec {
    BenchSpec {
        name,
        seed: 0x1e6_b111d,
        funcs: 1,
        pressure,
        block_len,
        loops_per_func: loops,
        max_depth: 2,
        mem_ratio: 0.15,
        call_ratio: 0.0,
        branch_ratio: 0.4,
        trip_range: (4, 16),
        muldiv_ratio: 0.2,
    }
}

fn sizes() -> Vec<BenchSpec> {
    vec![
        spec("small", 8, 24, 2),
        spec("medium", 16, 48, 4),
        spec("large", 32, 96, 8),
        spec("huge", 96, 256, 16),
    ]
}

/// The workload's single function plus its liveness solution.
fn workload(s: &BenchSpec) -> (Function, Liveness) {
    let p = generate(s);
    let f = p
        .funcs
        .into_iter()
        .max_by_key(|f| f.count_insts(|_| true))
        .expect("workload has a function");
    let l = Liveness::compute(&f);
    (f, l)
}

fn bench_irc_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("irc_build");
    group.sample_size(10);
    for s in sizes() {
        let (f, l) = workload(&s);
        group.bench_with_input(BenchmarkId::new("hashset-build", s.name), &f, |b, f| {
            b.iter(|| black_box(reference::build(f, &l, RegClass::Int, &CLOBBERS)))
        });
        group.bench_with_input(BenchmarkId::new("bitmatrix-build", s.name), &f, |b, f| {
            b.iter(|| black_box(InterferenceGraph::build(f, &l, RegClass::Int, &CLOBBERS)))
        });
        group.bench_with_input(BenchmarkId::new("build+color", s.name), &f, |b, f| {
            b.iter(|| {
                let mut f = f.clone();
                let mut cfg = AllocConfig::baseline(12);
                cfg.call_clobbers = CLOBBERS.to_vec();
                black_box(irc_allocate(&mut f, &cfg)).expect("allocates")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_irc_build);
criterion_main!(benches);
