//! Property tests for the remapping search's determinism contract: for a
//! fixed seed, the parallel multistart must produce exactly the same
//! remapped function and cost at any thread count, because every start's
//! RNG stream is a pure function of `(seed, start index)` and ties break
//! toward the lowest start index. The delta-table greedy descent
//! (`remap::descend`) must also take the same steps as the full-rescoring
//! oracle it replaced (`remap::reference::descend`), alone and when the
//! descents of one search share a sweep memo.

use dra_adjgraph::{build_preg_adjacency, AdjacencyGraph, DiffParams};
use dra_ir::{Function, FunctionBuilder, Inst, PReg, RegClass};
use dra_regalloc::remap::{descend, reference, DescentScratch, SweepMemo};
use dra_regalloc::{remap_function, RemapConfig};
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

/// A random instance: `edges` are `(from, to, w)` taken modulo `reg_n`,
/// with weight `w / 3` (so costs carry rounding); slot `i` is pinned when
/// `pins[i] == 0`. Returns the graph, the parameters and the free slots.
fn instance(
    reg_n: u16,
    diff_n: u16,
    edges: &[(u32, u32, u32)],
    pins: &[u8],
) -> (AdjacencyGraph, DiffParams, Vec<usize>) {
    let n = u32::from(reg_n);
    let mut g = AdjacencyGraph::new(reg_n as usize);
    for &(a, b, w) in edges {
        g.add_edge(a % n, b % n, f64::from(w) / 3.0);
    }
    let params = DiffParams::new(reg_n, diff_n % reg_n + 1);
    let free = (0..reg_n as usize).filter(|&i| pins[i] != 0).collect();
    (g, params, free)
}

/// A seeded shuffle of the free slots' numbers over the identity.
fn start_vector(reg_n: usize, free: &[usize], seed: u64) -> Vec<u8> {
    let mut vals: Vec<u8> = free.iter().map(|&i| i as u8).collect();
    vals.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut rv: Vec<u8> = (0..reg_n).map(|r| r as u8).collect();
    for (&slot, &v) in free.iter().zip(&vals) {
        rv[slot] = v;
    }
    rv
}

/// Run one search over `g`: a descent from each seeded start vector, all
/// sharing one [`SweepMemo`] and the caller's scratch, as a restart worker
/// does. Every descent must equal the full-rescoring oracle, which has
/// neither table nor memo: the same `(rv, cost bits, evals)`.
fn check_search(
    g: &AdjacencyGraph,
    params: DiffParams,
    free: &[usize],
    budget: u64,
    seeds: &[u64],
    scratch: &mut DescentScratch,
) -> Result<(), TestCaseError> {
    let idx = g.index();
    let mut memo = SweepMemo::new(&idx, free, params);
    for &seed in seeds {
        let rv = start_vector(params.reg_n() as usize, free, seed);
        let got = descend(&mut memo, budget, rv.clone(), scratch);
        let want = reference::descend(&idx, free, params, budget, rv);
        prop_assert_eq!(&got.rv, &want.rv, "register vectors differ");
        prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "costs differ");
        prop_assert_eq!(got.evals, want.evals, "evaluation counts differ");
        prop_assert!(got.evals <= budget, "descent overran its budget");
    }
    Ok(())
}

/// The delta-table descent against the oracle from two seeded start
/// vectors over one random instance, sharing one scratch (so reuse is
/// covered).
fn check_descent(
    reg_n: u16,
    diff_n: u16,
    edges: &[(u32, u32, u32)],
    pins: &[u8],
    budget: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (g, params, free) = instance(reg_n, diff_n, edges, pins);
    check_search(
        &g,
        params,
        &free,
        budget,
        &[seed, !seed],
        &mut DescentScratch::default(),
    )
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
        if cfg!(debug_assertions) { 16 } else { 64 }
    ))]

    /// Many seeded descents over one graph share one sweep memo, as the
    /// restarts of one search worker do, and each still equals the
    /// oracle: at RegN 8, 12, 32 and 64, with random DiffN and pinned
    /// slots, under budgets that never bind or that meet the whole-sweep
    /// fence mid-descent. The first start vector comes round again last,
    /// so that descent retraces the first one's recorded sweeps.
    #[test]
    fn memo_descents_match_full_rescoring(
        reg_n in prop_oneof![Just(8u16), Just(12), Just(32), Just(64)],
        diff_n in 0u16..64,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..100), 1..200),
        pins in proptest::collection::vec(0u8..8, 64),
        budget in prop_oneof![Just(u64::MAX), 1u64..3000],
        seed in any::<u64>(),
    ) {
        let (g, params, free) = instance(reg_n, diff_n, &edges, &pins);
        let mut seeds: Vec<u64> = (0..63).map(|i| seed.wrapping_add(i)).collect();
        seeds.push(seed);
        check_search(&g, params, &free, budget, &seeds, &mut DescentScratch::default())?;
    }

    /// Two searches over different graphs in turn, through the public
    /// `descend` API with one scratch and the same start vectors, so the
    /// second search sweeps from vectors the first one recorded. A memo
    /// borrows the index it was made for, so each search needs its own,
    /// and the second search still equals the oracle on its own graph.
    #[test]
    fn memo_entries_stay_with_their_search(
        reg_n in prop_oneof![Just(8u16), Just(12)],
        diff_n in 0u16..64,
        first in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..100), 1..100),
        second in proptest::collection::vec((any::<u32>(), any::<u32>(), 1u32..100), 1..100),
        pins in proptest::collection::vec(0u8..8, 64),
        seed in any::<u64>(),
    ) {
        let seeds: Vec<u64> = (0..32).map(|i| seed.wrapping_add(i)).collect();
        let mut scratch = DescentScratch::default();
        for edges in [&first, &second] {
            let (g, params, free) = instance(reg_n, diff_n, edges, &pins);
            check_search(&g, params, &free, u64::MAX, &seeds, &mut scratch)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 8 } else { 24 }
    ))]

    /// Threads 1, 2, and 8 produce identical (function, cost, counters)
    /// results from the greedy multistart, whose start vectors are pure
    /// functions of `(seed, start)`.
    #[test]
    fn parallel_multistart_matches_sequential(
        pairs in proptest::collection::vec((0u8..REG_N, 0u8..REG_N), 1..64),
        seed in any::<u64>(),
    ) {
        let run = |threads: usize| {
            let mut f = build_function(&pairs);
            let mut cfg = RemapConfig::new(DiffParams::new(REG_N as u16, 6));
            cfg.exhaustive_limit = 0; // force the greedy multistart
            cfg.starts = 48;
            cfg.seed = seed;
            cfg.threads = threads;
            let stats = remap_function(&mut f, &cfg, None);
            (
                format!("{f}"),
                stats.cost_after.to_bits(),
                stats.evaluations,
                stats.starts_run,
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
            let stats = remap_function(&mut f, &cfg, None);
            (format!("{f}"), stats)
        };
        let (text, stats) = run();
        prop_assert!(stats.cost_after <= stats.cost_before);
        let (text2, stats2) = run();
        prop_assert_eq!(text, text2);
        prop_assert_eq!(stats.cost_after.to_bits(), stats2.cost_after.to_bits());
    }

    /// The exhaustive search certifies the true optimum on brute-forceable
    /// instances: its cost equals the minimum over all `RegN!` register
    /// vectors (enumerated here independently, by recursion rather than
    /// Heap's algorithm, and scored by full `assignment_cost`), for
    /// `RegN <= 6`.
    #[test]
    fn exhaustive_is_optimal_on_small_instances(
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

        let stats = remap_function(&mut f, &RemapConfig::new(params), None);
        prop_assert!(stats.exhaustive, "RegN {} is under the exhaustive limit", reg_n);
        prop_assert!(stats.certified, "a completed enumeration must certify");
        prop_assert!(
            (stats.cost_after - optimum).abs() < 1e-9,
            "exhaustive cost {} vs brute-force optimum {optimum}", stats.cost_after
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
