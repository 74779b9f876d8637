//! Remapping-search scaling: the seed's full-rescoring greedy descent vs
//! the incremental delta-cost search, across register-file sizes:
//! `RegN` 8 to 32 at `DiffN = 8` (with the paper's `RegN = 12`, a dense
//! graph where restarts merge and the sweep memo replays sweeps), and the
//! sparse `RegN = 64, DiffN = 32` regime of the software-pipelined
//! kernels, where most of a descent's candidates come from its delta
//! table.
//!
//! Three variants per `RegN`:
//!
//! * `full-rescore/N` — the historical algorithm: every candidate swap
//!   re-scored with a full `O(E)` `assignment_cost` walk (32 starts).
//! * `incremental/N` — `swap_delta`-scored descent, one thread, 32 starts.
//! * `paper-1000/N` — the production configuration: incremental scoring,
//!   the paper's 1000 restarts, one worker thread per CPU.
//!
//! After the criterion sweep (skipped under `--test`), a headline summary
//! compares wall-clock at `RegN = 32` with 1000 starts — the acceptance
//! configuration — and prints the measured speedups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dra_adjgraph::{build_preg_adjacency, AdjacencyGraph, DiffParams};
use dra_core::lowend::{Approach, LowEndSetup};
use dra_core::{CompileSession, Telemetry};
use dra_ir::{Function, RegClass};
use dra_regalloc::{remap_function, RemapConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// The seed implementation this repository replaced: greedy pairwise-swap
/// descent scoring every candidate with a full `O(E)` cost evaluation.
/// Kept here (only here) as the reference the speedup is measured against.
fn full_rescore_greedy(g: &AdjacencyGraph, params: DiffParams, starts: u32, seed: u64) -> f64 {
    let reg_n = params.reg_n() as usize;
    let perm_cost =
        |rv: &[u8]| g.assignment_cost(|n| Some(rv[n as usize]), params);
    let mut rng = SmallRng::seed_from_u64(seed);
    let identity: Vec<u8> = (0..reg_n).map(|r| r as u8).collect();
    let mut best_cost = perm_cost(&identity);
    for start in 0..starts {
        let mut rv = identity.clone();
        if start > 0 {
            rv.shuffle(&mut rng);
        }
        let mut cost = perm_cost(&rv);
        loop {
            let mut best_swap: Option<(usize, usize, f64)> = None;
            for a in 0..reg_n {
                for b in a + 1..reg_n {
                    rv.swap(a, b);
                    let c = perm_cost(&rv);
                    rv.swap(a, b);
                    if c < cost && best_swap.is_none_or(|(_, _, bc)| c < bc) {
                        best_swap = Some((a, b, c));
                    }
                }
            }
            match best_swap {
                Some((a, b, c)) => {
                    rv.swap(a, b);
                    cost = c;
                }
                None => break,
            }
        }
        if cost < best_cost {
            best_cost = cost;
        }
        if best_cost == 0.0 {
            break;
        }
    }
    best_cost
}

/// The hottest `sha` function, baseline-allocated with `reg_n` registers
/// (no remapping applied — the search input, not its output).
fn allocated_function(reg_n: u16) -> Function {
    let session = CompileSession::new(LowEndSetup {
        direct_regs: reg_n,
        ..LowEndSetup::default()
    });
    let mut prog = dra_workloads::benchmark("sha");
    session
        .compile_program(&mut prog, Approach::Baseline, &mut Telemetry::new())
        .expect("sha allocates under baseline");
    prog.funcs
        .into_iter()
        .max_by_key(|f| f.count_insts(|_| true))
        .expect("sha has functions")
}

fn bench_remap_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("remap_scaling");
    group.sample_size(10);
    for (reg_n, diff_n) in [(8u16, 8u16), (12, 8), (16, 8), (24, 8), (32, 8), (64, 32)] {
        let params = DiffParams::new(reg_n, diff_n);
        let f = allocated_function(reg_n);
        let g = build_preg_adjacency(&f, RegClass::Int, reg_n);

        group.bench_with_input(BenchmarkId::new("full-rescore", reg_n), &g, |b, g| {
            b.iter(|| black_box(full_rescore_greedy(g, params, 32, 0x5eed)))
        });
        group.bench_with_input(BenchmarkId::new("incremental", reg_n), &f, |b, f| {
            b.iter(|| {
                let mut f = f.clone();
                let mut cfg = RemapConfig::new(params);
                cfg.exhaustive_limit = 0;
                cfg.starts = 32;
                cfg.threads = 1;
                black_box(remap_function(&mut f, &cfg, None))
            })
        });
        group.bench_with_input(BenchmarkId::new("paper-1000", reg_n), &f, |b, f| {
            b.iter(|| {
                let mut f = f.clone();
                let mut cfg = RemapConfig::new(params); // 1000 starts, all CPUs
                cfg.exhaustive_limit = 0;
                black_box(remap_function(&mut f, &cfg, None))
            })
        });
    }
    group.finish();

    // Headline wall-clock comparison at the acceptance configuration:
    // RegN = 32, the paper's 1000 restarts. One measured run each is
    // plenty at these durations; skipped under `--test` (CI smoke).
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let reg_n = 32u16;
    let params = DiffParams::new(reg_n, 8);
    let f = allocated_function(reg_n);
    let g = build_preg_adjacency(&f, RegClass::Int, reg_n);

    let t0 = Instant::now();
    let full_cost = full_rescore_greedy(&g, params, 1000, 0x5eed);
    let full = t0.elapsed();

    let run_incremental = |threads: usize| {
        let mut f2 = f.clone();
        let mut cfg = RemapConfig::new(params);
        cfg.exhaustive_limit = 0;
        cfg.threads = threads;
        let t = Instant::now();
        let stats = remap_function(&mut f2, &cfg, None);
        (t.elapsed(), stats)
    };
    let (inc, one) = run_incremental(1);
    let (par, all) = run_incremental(0);

    eprintln!("\nremap_scaling headline (RegN=32, 1000 starts, sha hottest fn):");
    eprintln!("  full re-scoring (seed algorithm): {full:?}  cost {full_cost}");
    eprintln!(
        "  incremental, 1 thread:            {inc:?}  cost {}  {} evals  speedup {:.1}x",
        one.cost_after,
        one.evaluations,
        full.as_secs_f64() / inc.as_secs_f64()
    );
    eprintln!(
        "  incremental, all CPUs:            {par:?}  cost {}  {} starts  speedup {:.1}x",
        all.cost_after,
        all.starts_run,
        full.as_secs_f64() / par.as_secs_f64()
    );
}

criterion_group!(benches, bench_remap_scaling);
criterion_main!(benches);
