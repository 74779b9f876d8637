//! Property tests for the remapping search's determinism contract: for a
//! fixed seed, the parallel multistart must produce exactly the same
//! remapped function and cost at any thread count, because every start's
//! RNG stream is a pure function of `(seed, start index)` and ties break
//! toward the lowest start index. The delta-table greedy descent
//! (`remap::descend`) must also take the same steps as the full-rescoring
//! oracle it replaced (`remap::reference::descend`).

use dra_adjgraph::{build_preg_adjacency, AdjacencyGraph, DiffParams};
use dra_ir::{Function, FunctionBuilder, Inst, PReg, RegClass};
use dra_regalloc::remap::{descend, reference, DescentScratch};
use dra_regalloc::{remap_function, RemapConfig, RemapStrategy};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const REG_N: u8 = 12;

fn build_function(pairs: &[(u8, u8)]) -> Function {
    let mut b = FunctionBuilder::new("f");
    for &(src, dst) in pairs {
        b.push(Inst::Mov {
            dst: PReg(dst % REG_N).into(),
            src: PReg(src % REG_N).into(),
        });
    }
    b.ret(None);
    b.finish()
}

/// Run the delta-table descent and the full-rescoring oracle from two
/// seeded start vectors over one random instance, sharing one scratch
/// between the table descents (so reuse is covered), and require the same
/// `(rv, cost bits, evals)` from both.
///
/// `edges` are `(from, to, w)` taken modulo `reg_n`, with weight `w / 3`
/// (so costs carry rounding); slot `i` is pinned when `pins[i] == 0`.
fn check_descent(
    reg_n: u16,
    diff_n: u16,
    edges: &[(u32, u32, u32)],
    pins: &[u8],
    budget: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = u32::from(reg_n);
    let mut g = AdjacencyGraph::new(reg_n as usize);
    for &(a, b, w) in edges {
        g.add_edge(a % n, b % n, f64::from(w) / 3.0);
    }
    let idx = g.index();
    let params = DiffParams::new(reg_n, diff_n % reg_n + 1);
    let free: Vec<usize> = (0..reg_n as usize).filter(|&i| pins[i] != 0).collect();
    let mut scratch = DescentScratch::default();
    for start_seed in [seed, !seed] {
        let mut vals: Vec<u8> = free.iter().map(|&i| i as u8).collect();
        vals.shuffle(&mut SmallRng::seed_from_u64(start_seed));
        let mut rv: Vec<u8> = (0..reg_n).map(|r| r as u8).collect();
        for (&slot, &v) in free.iter().zip(&vals) {
            rv[slot] = v;
        }
        let got = descend(&idx, &free, params, budget, rv.clone(), &mut scratch);
        let want = reference::descend(&idx, &free, params, budget, rv);
        prop_assert_eq!(&got.rv, &want.rv, "register vectors differ");
        prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "costs differ");
        prop_assert_eq!(got.evals, want.evals, "evaluation counts differ");
        prop_assert!(got.evals <= budget, "descent overran its budget");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 64 } else { 256 }
    ))]

    /// The delta-table descent equals the full-rescoring oracle step for
    /// step at RegN 8, 12, 32 and 64, with random DiffN, pinned slots and
    /// start vectors, under budgets that run to a local minimum or cut the
    /// descent mid-sweep.
    #[test]
    fn table_descent_matches_full_rescoring(
        reg_n in prop_oneof![Just(8u16), Just(12), Just(32), Just(64)],
        diff_n in 0u16..64,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..100), 1..200),
        pins in proptest::collection::vec(0u8..8, 64),
        budget in prop_oneof![Just(u64::MAX), 1u64..6000],
        seed in any::<u64>(),
    ) {
        check_descent(reg_n, diff_n, &edges, &pins, budget, seed)?;
    }

    /// The sparse regime of the software-pipelined kernels: RegN 32 or 64
    /// with at most one edge per node on average, where most candidates of
    /// a sweep after the first are served from the table.
    #[test]
    fn sparse_table_descent_matches_full_rescoring(
        wide in any::<bool>(),
        diff_n in 0u16..64,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..100), 1..32),
        pins in proptest::collection::vec(0u8..8, 64),
        budget in prop_oneof![Just(u64::MAX), 1u64..6000],
        seed in any::<u64>(),
    ) {
        let reg_n = if wide { 64 } else { 32 };
        check_descent(reg_n, diff_n, &edges, &pins, budget, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 8 } else { 24 }
    ))]

    /// Threads 1, 2, and 8 produce identical (function, cost, counters)
    /// results for every portfolio strategy — including the randomized
    /// simulated-annealing and LNS searchers, whose RNG streams are pure
    /// functions of `(seed, strategy, start)`.
    #[test]
    fn parallel_multistart_matches_sequential(
        pairs in proptest::collection::vec((0u8..REG_N, 0u8..REG_N), 1..64),
        seed in any::<u64>(),
        strategy in prop_oneof![
            Just(RemapStrategy::Greedy),
            Just(RemapStrategy::Anneal),
            Just(RemapStrategy::Lns),
            Just(RemapStrategy::Portfolio),
        ],
    ) {
        let run = |threads: usize| {
            let mut f = build_function(&pairs);
            let mut cfg = RemapConfig::new(DiffParams::new(REG_N as u16, 6));
            cfg.exhaustive_limit = 0; // force the restart portfolio
            cfg.starts = 48;
            cfg.seed = seed;
            cfg.threads = threads;
            cfg.strategy = strategy;
            let stats = remap_function(&mut f, &cfg);
            (
                format!("{f}"),
                stats.cost_after.to_bits(),
                stats.evaluations,
                stats.starts_run,
                stats.cycle_moves,
            )
        };
        let sequential = run(1);
        prop_assert_eq!(&run(2), &sequential, "2 threads diverged");
        prop_assert_eq!(&run(8), &sequential, "8 threads diverged");
    }

    /// The search never makes the assignment worse than the identity, and
    /// repeated runs with the same seed agree (full determinism).
    #[test]
    fn search_is_monotone_and_repeatable(
        pairs in proptest::collection::vec((0u8..REG_N, 0u8..REG_N), 1..64),
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut f = build_function(&pairs);
            let mut cfg = RemapConfig::new(DiffParams::new(REG_N as u16, 6));
            cfg.exhaustive_limit = 0;
            cfg.starts = 16;
            cfg.seed = seed;
            let stats = remap_function(&mut f, &cfg);
            (format!("{f}"), stats)
        };
        let (text, stats) = run();
        prop_assert!(stats.cost_after <= stats.cost_before);
        let (text2, stats2) = run();
        prop_assert_eq!(text, text2);
        prop_assert_eq!(stats.cost_after.to_bits(), stats2.cost_after.to_bits());
    }

    /// Branch-and-bound certifies the true optimum on brute-forceable
    /// instances: its cost equals the minimum over all `RegN!` register
    /// vectors, for `RegN <= 6`.
    #[test]
    fn branch_and_bound_is_optimal_on_small_instances(
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 1..32),
        reg_n in 4u16..=6,
        diff_n in 1u16..=3,
    ) {
        let small: Vec<(u8, u8)> = pairs
            .iter()
            .map(|&(a, b)| (a % reg_n as u8, b % reg_n as u8))
            .collect();
        let mut f = build_function(&small);
        let params = DiffParams::new(reg_n, diff_n);
        let g = build_preg_adjacency(&f, RegClass::Int, reg_n);

        // Brute force: minimum assignment cost over every permutation.
        let mut perm: Vec<u8> = (0..reg_n as u8).collect();
        let mut optimum = f64::INFINITY;
        permute(&mut perm, 0, &mut |rv| {
            let c = g.assignment_cost(|n| Some(rv[n as usize]), params);
            if c < optimum {
                optimum = c;
            }
        });

        let mut cfg = RemapConfig::new(params);
        cfg.strategy = RemapStrategy::BranchBound;
        let stats = remap_function(&mut f, &cfg);
        prop_assert!(stats.certified, "bb within the default budget must certify");
        prop_assert!(
            (stats.cost_after - optimum).abs() < 1e-9,
            "bb cost {} vs brute-force optimum {optimum}", stats.cost_after
        );
    }
}

/// Recursively visit every permutation of `v[at..]` (Heap-style swaps).
fn permute(v: &mut Vec<u8>, at: usize, visit: &mut impl FnMut(&[u8])) {
    if at == v.len() {
        visit(v);
        return;
    }
    for i in at..v.len() {
        v.swap(at, i);
        permute(v, at + 1, visit);
        v.swap(at, i);
    }
}
