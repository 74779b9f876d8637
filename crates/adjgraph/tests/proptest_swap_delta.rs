//! Property tests for the incremental scorer `AdjacencyIndex::swap_delta`:
//! on random graphs and register vectors, the incremental delta must
//! agree exactly with the difference
//! of two full `assignment_cost` evaluations, and every index kernel must
//! return the same bits as its graph-walking oracle
//! (`dra_adjgraph::graph::reference` and the `AdjacencyGraph` methods).

use dra_adjgraph::graph::reference;
use dra_adjgraph::{AdjacencyGraph, DiffParams};
use proptest::prelude::*;

const N: u32 = 12;

fn build(edges: &[(u32, u32, u32)]) -> AdjacencyGraph {
    let mut g = AdjacencyGraph::new(N as usize);
    for &(a, b, w) in edges {
        g.add_edge(a, b, w as f64);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 64 } else { 256 }
    ))]

    /// `swap_delta` equals the full-recost difference for every node pair,
    /// across random graphs, register vectors, and differential windows.
    #[test]
    fn swap_delta_matches_full_recost(
        edges in proptest::collection::vec(
            (0u32..N, 0u32..N, 1u32..100), 1..48
        ),
        rv in proptest::collection::vec(0u8..N as u8, N as usize),
        x in 0u32..N,
        y in 0u32..N,
        diff_n in 1u16..=N as u16,
    ) {
        let g = build(&edges);
        let idx = g.index();
        let params = DiffParams::new(N as u16, diff_n);

        let before = g.assignment_cost(|n| Some(rv[n as usize]), params);
        let mut swapped = rv.clone();
        swapped.swap(x as usize, y as usize);
        let after = g.assignment_cost(|n| Some(swapped[n as usize]), params);

        let delta = idx.swap_delta(&rv, x, y, params);
        prop_assert!(
            (delta - (after - before)).abs() < 1e-9,
            "swap ({x},{y}): delta {delta}, full {}", after - before
        );
    }

    /// A swap followed by the inverse swap must cancel exactly — the two
    /// deltas are evaluated on different vectors, so this checks that the
    /// swapped-lookup view matches the genuinely swapped vector.
    #[test]
    fn swap_then_unswap_cancels(
        edges in proptest::collection::vec(
            (0u32..N, 0u32..N, 1u32..100), 1..48
        ),
        rv in proptest::collection::vec(0u8..N as u8, N as usize),
        x in 0u32..N,
        y in 0u32..N,
    ) {
        let g = build(&edges);
        let idx = g.index();
        let params = DiffParams::new(N as u16, 4);

        let forward = idx.swap_delta(&rv, x, y, params);
        let mut swapped = rv.clone();
        swapped.swap(x as usize, y as usize);
        let back = idx.swap_delta(&swapped, x, y, params);
        prop_assert!(
            (forward + back).abs() < 1e-9,
            "forward {forward} + back {back} != 0"
        );
    }

    /// The CSR kernels against their oracles, bit for bit, over RegN
    /// 2..=64 and DiffN 1..=RegN (direct encoding included). Weights are
    /// inexact binary fractions, so a reordered sum would show up here.
    #[test]
    fn index_kernels_match_their_oracles_bit_for_bit(
        reg_n in 2u16..=64,
        direct in any::<bool>(),
        diff_sel in any::<u16>(),
        edges in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), 1u32..1000), 0..96
        ),
        raw_rv in proptest::collection::vec(any::<u8>(), 64),
        unassigned in any::<u64>(),
    ) {
        let n = reg_n as u32;
        let diff_n = if direct { reg_n } else { 1 + diff_sel % reg_n };
        let params = DiffParams::new(reg_n, diff_n);
        let mut g = AdjacencyGraph::new(n as usize);
        for &(a, b, w) in &edges {
            g.add_edge(a % n, b % n, w as f64 / 3.0);
        }
        let idx = g.index();
        let rv: Vec<u8> = raw_rv[..n as usize].iter().map(|&r| r % reg_n as u8).collect();

        let full = g.assignment_cost(|i| Some(rv[i as usize]), params);
        prop_assert_eq!(idx.perm_cost(&rv, params).to_bits(), full.to_bits());

        let assign = |i: u32| (unassigned >> i & 1 == 0).then(|| rv[i as usize]);
        for node in 0..n {
            prop_assert_eq!(
                idx.node_cost(node, assign, params).to_bits(),
                g.node_cost(node, assign, params).to_bits(),
                "node_cost of {}", node
            );
        }

        for x in 0..n {
            for y in 0..n {
                prop_assert_eq!(
                    idx.swap_delta(&rv, x, y, params).to_bits(),
                    reference::swap_delta(&g, &rv, x, y, params).to_bits(),
                    "swap ({}, {})", x, y
                );
            }
        }
        idx.recycle();
    }
}
