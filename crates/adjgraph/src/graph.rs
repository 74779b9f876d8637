//! The adjacency graph data structure (Definition 2).

use crate::params::DiffParams;
use std::collections::BTreeMap;

/// A directed weighted adjacency graph over dense node ids `0..n`.
///
/// Self-loops are never stored: an access pair `(v, v)` always encodes as
/// difference 0 and costs nothing (Section 4: "we do not draw any
/// self-looped edge … because they are always covered").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdjacencyGraph {
    n: usize,
    /// `(from, to) -> weight`; BTreeMap for deterministic iteration.
    edges: BTreeMap<(u32, u32), f64>,
}

impl AdjacencyGraph {
    /// An empty graph over nodes `0..n`.
    pub fn new(n: usize) -> Self {
        AdjacencyGraph {
            n,
            edges: BTreeMap::new(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of distinct directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add `w` to the weight of edge `from -> to`. Self-loops are dropped.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn add_edge(&mut self, from: u32, to: u32, w: f64) {
        assert!((from as usize) < self.n, "node {from} out of range");
        assert!((to as usize) < self.n, "node {to} out of range");
        if from == to {
            return;
        }
        *self.edges.entry((from, to)).or_insert(0.0) += w;
    }

    /// The weight of `from -> to` (0 if absent).
    pub fn weight(&self, from: u32, to: u32) -> f64 {
        self.edges.get(&(from, to)).copied().unwrap_or(0.0)
    }

    /// Iterate over `(from, to, weight)` in deterministic order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.edges.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// Total weight over all edges (an upper bound on differential cost).
    pub fn total_weight(&self) -> f64 {
        self.edges.values().sum()
    }

    /// Edges incident to `node` (either direction), as `(from, to, w)`, in
    /// the graph's edge order. A scan of the whole edge set; repeated
    /// queries should go through [`Self::index`].
    pub fn incident_edges_iter(&self, node: u32) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.iter_edges().filter(move |&(a, b, _)| a == node || b == node)
    }

    /// The differential cost of a register-number assignment: the summed
    /// weight of edges violating condition (3). Nodes mapped to `None`
    /// (e.g. spilled live ranges) contribute nothing.
    pub fn assignment_cost(
        &self,
        assign: impl Fn(u32) -> Option<u8>,
        params: DiffParams,
    ) -> f64 {
        let mut cost = 0.0;
        for (&(a, b), &w) in &self.edges {
            if let (Some(ra), Some(rb)) = (assign(a), assign(b)) {
                if !params.in_range(ra, rb) {
                    cost += w;
                }
            }
        }
        cost
    }

    /// Cost contributed by edges incident to `node` only — used by
    /// differential select when scoring one candidate color.
    pub fn node_cost(
        &self,
        node: u32,
        assign: impl Fn(u32) -> Option<u8>,
        params: DiffParams,
    ) -> f64 {
        let mut cost = 0.0;
        for (a, b, w) in self.incident_edges_iter(node) {
            if let (Some(ra), Some(rb)) = (assign(a), assign(b)) {
                if !params.in_range(ra, rb) {
                    cost += w;
                }
            }
        }
        cost
    }

    /// Merge node `b` into node `a` (coalescing): every edge touching `b`
    /// is redirected to `a`; resulting self-loops vanish (difference 0).
    pub fn merge_nodes(&mut self, a: u32, b: u32) {
        assert!((a as usize) < self.n && (b as usize) < self.n);
        if a == b {
            return;
        }
        let old = std::mem::take(&mut self.edges);
        for ((x, y), w) in old {
            let nx = if x == b { a } else { x };
            let ny = if y == b { a } else { y };
            if nx == ny {
                continue;
            }
            *self.edges.entry((nx, ny)).or_insert(0.0) += w;
        }
    }

    /// Build the incidence index ([`AdjacencyIndex`]) the hot loops read:
    /// differential select and coalesce score candidates with
    /// [`AdjacencyIndex::node_cost`], the remap searches with
    /// [`AdjacencyIndex::swap_delta`] and its relatives.
    ///
    /// The arrays come from a per-thread pool (see `dra_ir::scratch` for
    /// the pool rules); hand a finished index back with
    /// [`AdjacencyIndex::recycle`] so the next build on the same thread
    /// reuses their capacity.
    pub fn index(&self) -> AdjacencyIndex {
        let mut idx = index_pool::take();
        let AdjacencyIndex { start, inc, edges } = &mut idx;
        // Degrees, then running sums: `start[i]` becomes one past the end
        // of node i's row (and `start[n]` the entry count).
        start.resize(self.n + 1, 0);
        for &(a, b) in self.edges.keys() {
            start[a as usize] += 1;
            start[b as usize] += 1;
        }
        let mut end = 0;
        for s in start.iter_mut() {
            end += *s;
            *s = end;
        }
        // Fill from the last edge back, moving each row's cursor down, so
        // every row keeps the map's edge order and `start[i]` finishes at
        // the row's first entry.
        inc.resize(end as usize, (0, false, 0.0));
        for (&(a, b), &w) in self.edges.iter().rev() {
            start[b as usize] -= 1;
            inc[start[b as usize] as usize] = (a, false, w);
            start[a as usize] -= 1;
            inc[start[a as usize] as usize] = (b, true, w);
        }
        edges.extend(self.iter_edges());
        idx
    }
}

/// Per-thread, capped pool of index arrays; every array is cleared on take.
mod index_pool {
    use super::AdjacencyIndex;
    use std::cell::RefCell;

    thread_local! {
        static POOL: RefCell<Vec<AdjacencyIndex>> = const { RefCell::new(Vec::new()) };
    }

    const CAP: usize = 8;

    pub(super) fn take() -> AdjacencyIndex {
        let mut idx = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        idx.start.clear();
        idx.inc.clear();
        idx.edges.clear();
        idx
    }

    pub(super) fn put(idx: AdjacencyIndex) {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < CAP {
                p.push(idx);
            }
        });
    }
}

/// The adjacency graph as flat arrays: each node's incident edges in one
/// contiguous row of a compressed sparse row (CSR) layout, plus the edge
/// list. Rows and the list keep the graph's edge order, so every sum
/// below adds the same terms in the same order as the [`AdjacencyGraph`]
/// method it mirrors and returns the same bits.
///
/// A row entry `(other, out, w)` is the edge `node -> other` when `out`
/// is set and `other -> node` otherwise. Self-loops are never stored, so
/// `other != node`.
///
/// The remap kernels ([`Self::swap_delta`], [`Self::perm_cost`]) test
/// condition (3) without re-checking each register number against
/// `RegN`: [`Self::perm_cost`] asserts that a whole register vector is in
/// range, and every search calls it on its starting vector, at the end of
/// every descent and on every champion, while between those points the
/// vector only changes by swaps of its own entries. Indexing `rv` stays checked.
/// [`Self::node_cost`] takes arbitrary assignments and keeps the checked
/// [`DiffParams::in_range`].
#[derive(Clone, Debug, Default)]
pub struct AdjacencyIndex {
    /// Row offsets: node `i`'s entries are `inc[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    inc: Vec<(u32, bool, f64)>,
    /// `(from, to, w)` in the graph's edge order.
    edges: Vec<(u32, u32, f64)>,
}

/// One edge's contribution to a cost delta: `w` if it turns violating,
/// `-w` if it stops violating. `mine` is the row node's number before
/// and after the move, `other` the far endpoint's; `out` orients the
/// edge as in an [`AdjacencyIndex`] row. The edge's difference is
/// `other − mine` when it leaves the row node and `mine − other` when it
/// enters it, so `out` only picks a sign (no branch on the orientation).
#[inline]
fn flip(params: DiffParams, out: bool, mine: (u8, u8), other: (u8, u8), w: f64) -> f64 {
    let sign = if out { 1 } else { -1 };
    let was = params.violates(sign * (other.0 as i32 - mine.0 as i32));
    let is = params.violates(sign * (other.1 as i32 - mine.1 as i32));
    (is as i8 - was as i8) as f64 * w
}

impl AdjacencyIndex {
    /// Node `node`'s row: its incident edges as `(other, out, w)`.
    #[inline]
    fn row(&self, node: u32) -> &[(u32, bool, f64)] {
        let n = node as usize;
        &self.inc[self.start[n] as usize..self.start[n + 1] as usize]
    }

    /// Cost of the edges incident to `node` under `assign` — identical to
    /// [`AdjacencyGraph::node_cost`], but O(degree).
    pub fn node_cost(
        &self,
        node: u32,
        assign: impl Fn(u32) -> Option<u8>,
        params: DiffParams,
    ) -> f64 {
        let Some(rn) = assign(node) else {
            return 0.0;
        };
        let mut cost = 0.0;
        for &(o, out, w) in self.row(node) {
            if let Some(ro) = assign(o) {
                let (ra, rb) = if out { (rn, ro) } else { (ro, rn) };
                if !params.in_range(ra, rb) {
                    cost += w;
                }
            }
        }
        cost
    }

    /// Number of nodes in the index.
    pub fn num_nodes(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Return this index's storage to the per-thread pool so the next
    /// [`AdjacencyGraph::index`] on this thread reuses it. Dropping
    /// instead is always safe, just slower.
    pub fn recycle(self) {
        index_pool::put(self);
    }

    /// The cost of register vector `rv` (node `i` holds number `rv[i]`):
    /// the summed weight of the edges violating condition (3). Bit-identical
    /// to [`AdjacencyGraph::assignment_cost`] with `|i| Some(rv[i])`.
    ///
    /// # Panics
    ///
    /// Panics if any number in `rv` is `>= RegN` (the range check the
    /// other remap kernels rely on; see the type's docs), or if `rv` is
    /// shorter than the node count.
    pub fn perm_cost(&self, rv: &[u8], params: DiffParams) -> f64 {
        assert!(
            rv.iter().all(|&r| u16::from(r) < params.reg_n()),
            "register vector {rv:?} holds a number out of RegN ({})",
            params.reg_n()
        );
        let mut cost = 0.0;
        for &(a, b, w) in &self.edges {
            if params.violates(rv[b as usize] as i32 - rv[a as usize] as i32) {
                cost += w;
            }
        }
        cost
    }

    /// Exact cost change of swapping the register numbers assigned to
    /// nodes `x` and `y` under the register vector `rv` (node `i` holds
    /// number `rv[i]`), in time `O(deg(x) + deg(y))`.
    ///
    /// Only edges incident to `x` or `y` can change violation status under
    /// the swap; edges incident to **both** (the `x↔y` edges) appear in
    /// both rows and are counted once, by skipping them during the `y`
    /// pass. Returns `cost(after) - cost(before)`, so a profitable swap
    /// has a negative delta. The numbers in `rv` must be below `RegN`
    /// (checked by [`Self::perm_cost`], not here).
    ///
    /// # Panics
    ///
    /// Panics if `rv` is shorter than the node count or `x`/`y` are out of
    /// range.
    #[inline]
    pub fn swap_delta(&self, rv: &[u8], x: u32, y: u32, params: DiffParams) -> f64 {
        if x == y {
            return 0.0;
        }
        let (rx, ry) = (rv[x as usize], rv[y as usize]);
        let mut delta = 0.0;
        for &(o, out, w) in self.row(x) {
            let ro = rv[o as usize];
            let ro_after = if o == y { rx } else { ro };
            delta += flip(params, out, (rx, ry), (ro, ro_after), w);
        }
        for &(o, out, w) in self.row(y) {
            if o == x {
                continue; // already counted in the x pass
            }
            let ro = rv[o as usize];
            delta += flip(params, out, (ry, rx), (ro, ro), w);
        }
        delta
    }

    /// Set `marks[node]` and the mark of every node sharing an edge with
    /// `node`. After a swap of `x` and `y`, exactly the pairs with an
    /// endpoint marked by `mark_neighborhood(x)` and
    /// `mark_neighborhood(y)` can have a new [`Self::swap_delta`]: the
    /// kernel reads `rv` only at its two nodes and their row neighbours,
    /// and rows are symmetric.
    ///
    /// # Panics
    ///
    /// Panics if `marks` is shorter than the node count.
    #[inline]
    pub fn mark_neighborhood(&self, node: u32, marks: &mut [bool]) {
        marks[node as usize] = true;
        for &(o, _, _) in self.row(node) {
            marks[o as usize] = true;
        }
    }

    /// Total weight of edges incident to `node`.
    pub fn incident_weight(&self, node: u32) -> f64 {
        self.row(node).iter().map(|&(_, _, w)| w).sum()
    }

}

/// The closure-based incremental scorers the [`AdjacencyIndex`] kernels
/// replaced, kept as their testing oracle (like
/// `dra_regalloc::irc::reference`). They walk each node's incident edges
/// in the graph's edge order — the order the index's rows keep — map
/// every endpoint through a before/after closure and test condition (3)
/// with the checked [`DiffParams::in_range`]. The property tests in
/// `crates/adjgraph/tests/proptest_swap_delta.rs` pin the index's kernels
/// to them bit for bit. Nothing outside tests calls them.
pub mod reference {
    use super::AdjacencyGraph;
    use crate::params::DiffParams;

    /// [`super::AdjacencyIndex::swap_delta`], one closure call per endpoint.
    pub fn swap_delta(g: &AdjacencyGraph, rv: &[u8], x: u32, y: u32, params: DiffParams) -> f64 {
        if x == y {
            return 0.0;
        }
        let before = |n: u32| rv[n as usize];
        let after = |n: u32| {
            if n == x {
                rv[y as usize]
            } else if n == y {
                rv[x as usize]
            } else {
                rv[n as usize]
            }
        };
        let mut delta = 0.0;
        for (a, b, w) in g.incident_edges_iter(x) {
            let was = !params.in_range(before(a), before(b));
            let is = !params.in_range(after(a), after(b));
            delta += (is as i8 - was as i8) as f64 * w;
        }
        for (a, b, w) in g.incident_edges_iter(y) {
            if a == x || b == x {
                continue; // already counted in the x pass
            }
            let was = !params.in_range(before(a), before(b));
            let is = !params.in_range(after(a), after(b));
            delta += (is as i8 - was as i8) as f64 * w;
        }
        delta
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_loops_dropped() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(1, 1, 5.0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.weight(1, 1), 0.0);
    }

    #[test]
    fn weights_accumulate() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 1.0);
        assert_eq!(g.weight(0, 1), 2.0);
        assert_eq!(g.weight(1, 0), 0.0, "directed");
        assert_eq!(g.total_weight(), 2.0);
    }

    #[test]
    fn figure5_example_zero_cost_solution() {
        // Figure 5.d: edges (L1,L2)x2, (L2,L3), (L3,L4), (L4,L1), (L2,L5),
        // (L5,L4), (L4,L6); RegN=3, DiffN=2; Figure 5.e's solution has 0
        // cost: L1=0 L2=1 L3=2 L4=0 L5=2 L6=1.
        let mut g = AdjacencyGraph::new(6);
        g.add_edge(0, 1, 2.0); // L1 -> L2 twice
        g.add_edge(1, 2, 1.0); // L2 -> L3
        g.add_edge(2, 3, 1.0); // L3 -> L4
        g.add_edge(3, 0, 1.0); // L4 -> L1
        g.add_edge(1, 4, 1.0); // L2 -> L5
        g.add_edge(4, 3, 1.0); // L5 -> L4
        g.add_edge(3, 5, 1.0); // L4 -> L6
        let params = DiffParams::new(3, 2);
        let solution = [0u8, 1, 2, 0, 2, 1];
        let cost = g.assignment_cost(|n| Some(solution[n as usize]), params);
        assert_eq!(cost, 0.0, "paper's Figure 5.e solution is cost-free");
    }

    #[test]
    fn violating_assignment_counts_weight() {
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(0, 1, 3.0);
        let params = DiffParams::new(4, 2);
        // 0 -> 1 with regs 0 -> 2: difference 2 >= DiffN.
        let cost = g.assignment_cost(|n| Some(if n == 0 { 0 } else { 2 }), params);
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn unassigned_nodes_cost_nothing() {
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(0, 1, 3.0);
        let params = DiffParams::new(4, 2);
        let cost = g.assignment_cost(|n| if n == 0 { Some(0) } else { None }, params);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn node_cost_scopes_to_incident_edges() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 1.0); // violating below
        g.add_edge(1, 2, 1.0); // violating below
        let params = DiffParams::new(8, 2);
        let assign = |n: u32| Some(match n {
            0 => 0u8,
            1 => 4,
            _ => 1,
        });
        // Edge 0->1: diff 4 (violates); edge 1->2: diff 5 (violates).
        assert_eq!(g.node_cost(0, assign, params), 1.0);
        assert_eq!(g.node_cost(1, assign, params), 2.0);
        assert_eq!(g.assignment_cost(assign, params), 2.0);
    }

    #[test]
    fn merge_redirects_and_drops_self_loops() {
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 1, 4.0);
        g.merge_nodes(2, 1); // 1 absorbed into 2
        assert_eq!(g.weight(0, 2), 1.0);
        assert_eq!(g.weight(2, 2), 0.0, "self-loop dropped");
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_checks_bounds() {
        AdjacencyGraph::new(2).add_edge(0, 2, 1.0);
    }

    #[test]
    fn index_node_cost_matches_graph_node_cost() {
        let mut g = AdjacencyGraph::new(5);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(3, 1, 4.0);
        g.add_edge(2, 4, 1.5);
        let idx = g.index();
        let params = DiffParams::new(8, 3);
        let assign = |n: u32| Some((n as u8 * 3) % 8);
        for node in 0..5 {
            assert_eq!(
                g.node_cost(node, assign, params),
                idx.node_cost(node, assign, params),
                "node {node}"
            );
        }
        assert_eq!(idx.num_nodes(), 5);
    }

    #[test]
    fn recycled_index_matches_a_fresh_one() {
        // A large index goes back to the pool; the next, smaller build on
        // this thread reuses its arrays and must not see stale entries.
        let big = dense_test_graph();
        big.index().recycle();
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(2, 0, 1.5);
        g.add_edge(0, 1, 2.0);
        let idx = g.index();
        assert_eq!(idx.num_nodes(), 3);
        assert_eq!(idx.row(0), &[(1, true, 2.0), (2, false, 1.5)]);
        assert_eq!(idx.row(1), &[(0, false, 2.0)]);
        assert_eq!(idx.row(2), &[(0, true, 1.5)]);
        assert_eq!(idx.edges, vec![(0, 1, 2.0), (2, 0, 1.5)]);
    }

    #[test]
    fn perm_cost_matches_the_graph() {
        let g = dense_test_graph();
        let idx = g.index();
        let params = DiffParams::new(8, 3);
        let rv: Vec<u8> = vec![5, 0, 7, 2, 4, 1];
        let full = g.assignment_cost(|n| Some(rv[n as usize]), params);
        assert_eq!(idx.perm_cost(&rv, params).to_bits(), full.to_bits());
    }

    #[test]
    #[should_panic(expected = "out of RegN")]
    fn perm_cost_checks_the_register_vector() {
        let g = dense_test_graph();
        g.index()
            .perm_cost(&[0, 1, 2, 3, 4, 8], DiffParams::new(8, 3));
    }

    #[test]
    fn incident_weight_sums_both_directions() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(2, 0, 3.0);
        let idx = g.index();
        assert_eq!(idx.incident_weight(0), 5.0);
        assert_eq!(idx.incident_weight(1), 2.0);
        assert_eq!(idx.incident_weight(2), 3.0);
    }

    #[test]
    fn mark_neighborhood_marks_node_and_both_directions() {
        let mut g = AdjacencyGraph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(3, 0, 1.0);
        g.add_edge(2, 4, 1.0);
        let idx = g.index();
        let mut marks = vec![false; 5];
        idx.mark_neighborhood(0, &mut marks);
        assert_eq!(marks, [true, true, false, true, false]);
        idx.mark_neighborhood(4, &mut marks);
        assert_eq!(marks, [true, true, true, true, true]);
    }

    #[test]
    fn swap_delta_matches_full_recost() {
        // Dense-ish graph including x<->y edges in both directions, so the
        // double-count path is exercised.
        let mut g = AdjacencyGraph::new(6);
        let edges = [
            (0u32, 1u32, 2.0),
            (1, 0, 1.0),
            (1, 2, 1.5),
            (2, 3, 4.0),
            (3, 1, 0.5),
            (4, 5, 2.5),
            (0, 5, 3.0),
            (2, 0, 1.0),
        ];
        for (a, b, w) in edges {
            g.add_edge(a, b, w);
        }
        let idx = g.index();
        let params = DiffParams::new(8, 3);
        let rv: Vec<u8> = vec![5, 0, 7, 2, 4, 1];
        for x in 0..6u32 {
            for y in 0..6u32 {
                let mut swapped = rv.clone();
                swapped.swap(x as usize, y as usize);
                let full_before = g.assignment_cost(|n| Some(rv[n as usize]), params);
                let full_after = g.assignment_cost(|n| Some(swapped[n as usize]), params);
                let delta = idx.swap_delta(&rv, x, y, params);
                assert!(
                    (delta - (full_after - full_before)).abs() < 1e-12,
                    "swap ({x},{y}): delta {delta} vs full {}",
                    full_after - full_before
                );
            }
        }
    }

    #[test]
    fn swap_delta_self_swap_is_zero() {
        let mut g = AdjacencyGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        let idx = g.index();
        let params = DiffParams::new(4, 1);
        let rv = [0u8, 3, 1];
        for n in 0..3 {
            assert_eq!(idx.swap_delta(&rv, n, n, params), 0.0);
        }
    }

    #[test]
    fn swap_delta_counts_mutual_edge_once() {
        // Only edges between x and y: the naive two-pass sum would double
        // the delta; the skip in the y pass must prevent that.
        let mut g = AdjacencyGraph::new(2);
        g.add_edge(0, 1, 3.0);
        g.add_edge(1, 0, 2.0);
        let idx = g.index();
        let params = DiffParams::new(8, 2);
        // rv = [0, 6]: both edges violate (diffs 6 and 2 mod-wrap out of
        // range). Swapping changes nothing for a 2-node graph (the pair of
        // numbers is the same set), so delta must be the exact full-recost
        // difference, not twice it.
        let rv = [0u8, 6];
        let before = g.assignment_cost(|n| Some(rv[n as usize]), params);
        let after = g.assignment_cost(|n| Some(rv[1 - n as usize]), params);
        assert_eq!(idx.swap_delta(&rv, 0, 1, params), after - before);
    }

    fn dense_test_graph() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(6);
        let edges = [
            (0u32, 1u32, 2.0),
            (1, 0, 1.0),
            (1, 2, 1.5),
            (2, 3, 4.0),
            (3, 1, 0.5),
            (4, 5, 2.5),
            (0, 5, 3.0),
            (2, 0, 1.0),
            (3, 5, 1.25),
        ];
        for (a, b, w) in edges {
            g.add_edge(a, b, w);
        }
        g
    }

    #[test]
    fn sum_of_node_costs_double_counts_assignment_cost() {
        // Every violating edge is incident to exactly two nodes, so the
        // node-cost sum equals twice the assignment cost.
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 4.0);
        let params = DiffParams::new(8, 2);
        let assign = |n: u32| Some([0u8, 5, 1, 7][n as usize]);
        let total = g.assignment_cost(assign, params);
        let sum: f64 = (0..4).map(|n| g.node_cost(n, assign, params)).sum();
        assert_eq!(sum, 2.0 * total);
    }
}
