//! Color-stage cost: the set-based IRC engine (`irc::reference`) vs the
//! dense indexed engine, across workload sizes.
//!
//! PR 2 made graph *construction* fast; `AllocStats::color_nanos` (the
//! simplify/coalesce/freeze/select worklist loop plus the rewrite) then
//! dominated allocation time. The dense engine replaces the `BTreeSet`
//! worklists, `HashSet` membership tests, per-node move sets, and
//! chain-walk aliasing with per-node state arrays, bitset worklists, CSR
//! move lists, and path-compressed union-find — with bit-identical
//! output, which this benchmark re-asserts on every workload before
//! timing anything.
//!
//! Two variants per size:
//!
//! * `reference-color/S` — full `irc::reference::irc_allocate`.
//! * `dense-color/S` — full `irc_allocate` on the dense engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_ir::{Function, PReg};
use dra_regalloc::irc::reference;
use dra_regalloc::{irc_allocate, AllocConfig, SelectStrategy};
use dra_workloads::mibench::{generate, BenchSpec};
use std::hint::black_box;

/// Call-clobbered registers, matching `LowEndSetup::default`.
const CLOBBERS: [PReg; 2] = [PReg(0), PReg(1)];

/// A synthetic workload of roughly increasing interference-graph size
/// (same shapes as `irc_build.rs`).
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

/// The workload's single largest function.
fn workload(s: &BenchSpec) -> Function {
    generate(s)
        .funcs
        .into_iter()
        .max_by_key(|f| f.count_insts(|_| true))
        .expect("workload has a function")
}

/// The allocator configuration under test (baseline select; the
/// equivalence gate also checks the differential path).
fn cfg() -> AllocConfig {
    let mut cfg = AllocConfig::baseline(12);
    cfg.call_clobbers = CLOBBERS.to_vec();
    cfg
}

fn bench_irc_color(c: &mut Criterion) {
    // Equivalence gate: both engines must produce bit-identical programs
    // and work counters on every benchmark workload, under both the
    // baseline and the differential strategy. Runs before the `--test`
    // early-return so the CI smoke re-proves it on every tier-1 run.
    for s in sizes() {
        let f = workload(&s);
        for strategy in [SelectStrategy::Lowest, SelectStrategy::Differential] {
            let mut acfg = cfg();
            acfg.strategy = strategy;
            if strategy == SelectStrategy::Differential {
                acfg.params = dra_adjgraph::DiffParams::new(12, 8);
            }
            let mut fd = f.clone();
            let mut fr = f.clone();
            let sd = irc_allocate(&mut fd, &acfg).expect("dense allocates");
            let sr = reference::irc_allocate(&mut fr, &acfg).expect("reference allocates");
            assert_eq!(fd, fr, "engines diverge on {} ({:?})", s.name, strategy);
            assert_eq!(
                (sd.rounds, sd.spilled_vregs, sd.moves_coalesced,
                 sd.simplify_steps, sd.coalesce_steps, sd.freeze_steps, sd.spill_selects),
                (sr.rounds, sr.spilled_vregs, sr.moves_coalesced,
                 sr.simplify_steps, sr.coalesce_steps, sr.freeze_steps, sr.spill_selects),
                "work counters diverge on {} ({:?})", s.name, strategy
            );
        }
    }

    let mut group = c.benchmark_group("irc_color");
    group.sample_size(10);
    for s in sizes() {
        let f = workload(&s);
        group.bench_with_input(BenchmarkId::new("reference-color", s.name), &f, |b, f| {
            b.iter(|| {
                let mut f = f.clone();
                black_box(reference::irc_allocate(&mut f, &cfg())).expect("allocates")
            })
        });
        group.bench_with_input(BenchmarkId::new("dense-color", s.name), &f, |b, f| {
            b.iter(|| {
                let mut f = f.clone();
                black_box(irc_allocate(&mut f, &cfg())).expect("allocates")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_irc_color);
criterion_main!(benches);
