//! Interference graph construction.
//!
//! Nodes are liveness *entities* (virtual registers, then physical
//! registers — see [`dra_ir::liveness`]). Edges connect co-live values; a
//! move's source is excluded from interfering with its destination at the
//! move itself so the pair remains coalescible (Chaitin's refinement).
//!
//! # Representation
//!
//! The graph is a **hybrid**: a triangular [`BitMatrix`] answers
//! `interferes(a, b)` in O(1), and per-node adjacency vectors (`Vec<u32>`,
//! built append-only and deduplicated *through* the matrix) give O(degree)
//! neighbor iteration. Degrees are tracked incrementally as edges land.
//! Compared with the `Vec<HashSet<u32>>` this replaced, membership and
//! insertion are single word operations, neighbor walks are contiguous
//! loads, and the whole structure costs `n(n+1)/2` bits plus `2·E` u32s
//! instead of per-node hash tables.
//!
//! The node count is sized to the entities the function can actually
//! reference — `vreg_count` plus the *used* physical registers (the
//! highest-numbered one appearing in the body or the clobber list) — not
//! the full `MAX_PREGS` window, so 2-register functions no longer carry
//! 64 physical-register nodes.

use dra_ir::bitset::BitMatrix;
use dra_ir::liveness::{reg_to_entity, Liveness};
use dra_ir::{Function, Inst, PReg, Reg, RegClass};

/// One move instruction's endpoints, as entity ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MoveRef {
    /// Entity of the move destination.
    pub dst: u32,
    /// Entity of the move source.
    pub src: u32,
}

/// An [`InterferenceGraph`] taken apart by [`InterferenceGraph::into_parts`]:
/// the bit matrix, adjacency lists, degrees, moves and use/def weights.
pub type GraphParts = (BitMatrix, Vec<Vec<u32>>, Vec<u32>, Vec<MoveRef>, Vec<f64>);

/// An undirected interference graph over entities, plus the move list.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    n: usize,
    vreg_count: u32,
    bits: BitMatrix,
    adj: Vec<Vec<u32>>,
    degree: Vec<u32>,
    /// All register-to-register moves of the allocated class.
    pub moves: Vec<MoveRef>,
    /// Spill metric per entity: Σ freq of blocks containing uses/defs.
    pub use_def_weight: Vec<f64>,
}

/// `1 +` the highest physical-register number the graph must model: any
/// appearing in the function body plus the call-clobber list.
fn used_preg_limit(f: &Function, call_clobbers: &[PReg]) -> usize {
    let mut max: Option<u8> = call_clobbers.iter().map(|p| p.number()).max();
    for inst in f.iter_insts() {
        for r in inst.accesses() {
            if let Reg::Phys(p) = r {
                max = Some(max.map_or(p.number(), |m| m.max(p.number())));
            }
        }
    }
    max.map_or(0, |m| m as usize + 1)
}

impl InterferenceGraph {
    /// Build the graph for the registers of `class` in `f`.
    ///
    /// `call_clobbers` lists physical registers treated as defined by every
    /// `Call` — values live across a call then interfere with them, forcing
    /// the allocator to keep such values in callee-saved registers or spill
    /// them, as on a real machine.
    pub fn build(
        f: &Function,
        liveness: &Liveness,
        class: RegClass,
        call_clobbers: &[PReg],
    ) -> InterferenceGraph {
        let vreg_count = f.vreg_count;
        let n = vreg_count as usize + used_preg_limit(f, call_clobbers);
        // All backing storage comes from the per-thread arena (fresh
        // allocations when reuse is off or the pool is dry); see
        // [`crate::scratch`].
        let mut g = InterferenceGraph {
            n,
            vreg_count,
            bits: crate::scratch::take_matrix(n),
            adj: crate::scratch::take_adj(n),
            degree: crate::scratch::take_u32_zeroed(n),
            moves: crate::scratch::take_moves(),
            use_def_weight: crate::scratch::take_f64_zeroed(n),
        };

        // Scratch buffers reused across blocks and instructions.
        let mut live = dra_ir::scratch::take_set(liveness.num_entities);
        let mut defs: Vec<u32> = crate::scratch::take_u32();
        let mut uses: Vec<u32> = crate::scratch::take_u32();
        let mut all_defs: Vec<u32> = crate::scratch::take_u32();

        for (b, blk) in f.iter_blocks() {
            // Entities live after each instruction, walked backwards.
            live.copy_from(liveness.block_live_out(b));
            for inst in blk.insts.iter().rev() {
                defs.clear();
                uses.clear();
                defs.extend(
                    inst.defs()
                        .into_iter()
                        .filter(|&r| f.class_of(r) == class)
                        .map(|r| g.entity_checked(r)),
                );
                uses.extend(
                    inst.uses()
                        .into_iter()
                        .filter(|&r| f.class_of(r) == class)
                        .map(|r| g.entity_checked(r)),
                );

                for &e in defs.iter().chain(uses.iter()) {
                    g.use_def_weight[e as usize] += blk.freq;
                }

                // Moves: src does not interfere with dst across the move.
                let mut move_src: Option<u32> = None;
                if let Inst::Mov { .. } = inst {
                    if let (Some(&d), Some(&s)) = (defs.first(), uses.first()) {
                        g.moves.push(MoveRef { dst: d, src: s });
                        move_src = Some(s);
                    }
                }

                // Call clobbers act as additional defs.
                all_defs.clear();
                all_defs.extend_from_slice(&defs);
                if matches!(inst, Inst::Call { .. }) && class == RegClass::Int {
                    for p in call_clobbers {
                        all_defs.push(g.entity_checked((*p).into()));
                    }
                }

                for &d in &all_defs {
                    for l in live.iter() {
                        let l = l as u32;
                        if Some(l) == move_src {
                            continue;
                        }
                        g.add_edge(d, l);
                    }
                }
                // Defs interfere with each other (same program point).
                for i in 0..all_defs.len() {
                    for j in i + 1..all_defs.len() {
                        g.add_edge(all_defs[i], all_defs[j]);
                    }
                }

                for &d in &defs {
                    live.remove(d as usize);
                }
                for &u in &uses {
                    live.insert(u as usize);
                }
            }
        }
        dra_ir::scratch::put_set(live);
        crate::scratch::put_u32(defs);
        crate::scratch::put_u32(uses);
        crate::scratch::put_u32(all_defs);
        g
    }

    /// Return this graph's backing storage to the per-thread arena.
    ///
    /// Consumers that drop a graph whole (rather than adopting its parts
    /// via [`InterferenceGraph::into_parts`]) should call this in compile
    /// hot paths; dropping is always safe, just slower.
    pub fn recycle(self) {
        crate::scratch::put_matrix(self.bits);
        crate::scratch::put_adj(self.adj);
        crate::scratch::put_u32(self.degree);
        crate::scratch::put_moves(self.moves);
        crate::scratch::put_f64(self.use_def_weight);
    }

    /// Map `r` to its entity id, asserting it fits the sized node range.
    fn entity_checked(&self, r: Reg) -> u32 {
        let e = reg_to_entity(r, self.vreg_count);
        assert!(
            e < self.n,
            "entity {e} ({r}) out of range for graph sized {}",
            self.n
        );
        e as u32
    }

    /// Number of entities (nodes): `vreg_count + preg_limit`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Physical registers modeled by the graph: entities
    /// `vreg_count .. vreg_count + preg_limit` are precolored. This is the
    /// *used* register window, not `MAX_PREGS`.
    pub fn preg_limit(&self) -> usize {
        self.n - self.vreg_count as usize
    }

    /// The analyzed function's virtual-register count.
    pub fn vreg_count(&self) -> u32 {
        self.vreg_count
    }

    /// Is `e` a precolored (physical-register) entity?
    pub fn is_precolored(&self, e: u32) -> bool {
        e >= self.vreg_count
    }

    /// The physical register number of a precolored entity.
    ///
    /// # Panics
    ///
    /// Panics if `e` is a virtual-register entity.
    pub fn preg_number(&self, e: u32) -> u8 {
        assert!(self.is_precolored(e), "entity {e} is virtual");
        (e - self.vreg_count) as u8
    }

    /// Add an undirected edge (self-edges ignored, duplicates deduped
    /// through the bit-matrix).
    pub fn add_edge(&mut self, a: u32, b: u32) {
        if a == b {
            return;
        }
        assert!(
            (a as usize) < self.n && (b as usize) < self.n,
            "edge ({a},{b}) out of range for graph sized {}",
            self.n
        );
        if self.bits.set(a as usize, b as usize) {
            self.adj[a as usize].push(b);
            self.adj[b as usize].push(a);
            self.degree[a as usize] += 1;
            self.degree[b as usize] += 1;
        }
    }

    /// Do `a` and `b` interfere? O(1) bit-matrix probe.
    pub fn interferes(&self, a: u32, b: u32) -> bool {
        if (a as usize) >= self.n || (b as usize) >= self.n {
            return false;
        }
        self.bits.contains(a as usize, b as usize)
    }

    /// Neighbors of `e`, in edge-insertion order.
    pub fn neighbors(&self, e: u32) -> impl Iterator<Item = u32> + '_ {
        self.adjacency(e).iter().copied()
    }

    /// Neighbor slice of `e` (empty for out-of-range entities).
    pub fn adjacency(&self, e: u32) -> &[u32] {
        self.adj.get(e as usize).map_or(&[], |v| v.as_slice())
    }

    /// Degree of `e`.
    pub fn degree(&self, e: u32) -> usize {
        self.degree.get(e as usize).map_or(0, |&d| d as usize)
    }

    /// The O(1)-membership edge matrix.
    pub fn bit_matrix(&self) -> &BitMatrix {
        &self.bits
    }

    /// Decompose into its [`GraphParts`] so a consumer (the IRC worklists)
    /// can take ownership without copying.
    pub fn into_parts(self) -> GraphParts {
        (self.bits, self.adj, self.degree, self.moves, self.use_def_weight)
    }
}

/// The `Vec<HashSet<u32>>` build this module replaced, kept as the testing
/// and benchmarking oracle: the property suite pins the bit-matrix build
/// equal to it (edges, degrees, moves, weights), and the `irc_build`
/// criterion bench measures the speedup against it.
pub mod reference {
    use super::MoveRef;
    use dra_ir::liveness::{reg_to_entity, Liveness, MAX_PREGS};
    use dra_ir::{Function, Inst, PReg, RegClass};
    use std::collections::HashSet;

    /// Hash-set adjacency graph over the full `vreg_count + MAX_PREGS`
    /// entity window (the historical sizing).
    pub struct RefGraph {
        /// Per-entity neighbor sets.
        pub adj: Vec<HashSet<u32>>,
        /// Moves of the allocated class.
        pub moves: Vec<MoveRef>,
        /// Σ freq of blocks containing uses/defs, per entity.
        pub use_def_weight: Vec<f64>,
    }

    impl RefGraph {
        /// Do `a` and `b` interfere?
        pub fn interferes(&self, a: u32, b: u32) -> bool {
            self.adj[a as usize].contains(&b)
        }

        /// Degree of `e`.
        pub fn degree(&self, e: u32) -> usize {
            self.adj[e as usize].len()
        }
    }

    /// The pre-bitset construction algorithm, preserved verbatim.
    pub fn build(
        f: &Function,
        liveness: &Liveness,
        class: RegClass,
        call_clobbers: &[PReg],
    ) -> RefGraph {
        let vreg_count = f.vreg_count;
        let n = vreg_count as usize + MAX_PREGS;
        let mut g = RefGraph {
            adj: vec![HashSet::new(); n],
            moves: Vec::new(),
            use_def_weight: vec![0.0; n],
        };
        let add_edge = |adj: &mut Vec<HashSet<u32>>, a: u32, b: u32| {
            if a != b {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        };

        for (b, blk) in f.iter_blocks() {
            let mut live: HashSet<u32> = liveness
                .block_live_out(b)
                .iter()
                .map(|e| e as u32)
                .collect();
            for inst in blk.insts.iter().rev() {
                let defs: Vec<u32> = inst
                    .defs()
                    .into_iter()
                    .filter(|&r| f.class_of(r) == class)
                    .map(|r| reg_to_entity(r, vreg_count) as u32)
                    .collect();
                let uses: Vec<u32> = inst
                    .uses()
                    .into_iter()
                    .filter(|&r| f.class_of(r) == class)
                    .map(|r| reg_to_entity(r, vreg_count) as u32)
                    .collect();

                for &e in defs.iter().chain(uses.iter()) {
                    g.use_def_weight[e as usize] += blk.freq;
                }

                let mut move_src: Option<u32> = None;
                if let Inst::Mov { .. } = inst {
                    if let (Some(&d), Some(&s)) = (defs.first(), uses.first()) {
                        g.moves.push(MoveRef { dst: d, src: s });
                        move_src = Some(s);
                    }
                }

                let mut all_defs = defs.clone();
                if matches!(inst, Inst::Call { .. }) && class == RegClass::Int {
                    for p in call_clobbers {
                        all_defs.push(reg_to_entity((*p).into(), vreg_count) as u32);
                    }
                }

                for &d in &all_defs {
                    for &l in &live {
                        if Some(l) == move_src {
                            continue;
                        }
                        add_edge(&mut g.adj, d, l);
                    }
                }
                for i in 0..all_defs.len() {
                    for j in i + 1..all_defs.len() {
                        add_edge(&mut g.adj, all_defs[i], all_defs[j]);
                    }
                }

                for &d in &defs {
                    live.remove(&d);
                }
                for &u in &uses {
                    live.insert(u);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_ir::{BinOp, FunctionBuilder, Liveness, Reg, VReg};

    fn entity(v: VReg, f: &Function) -> u32 {
        reg_to_entity(v.into(), f.vreg_count) as u32
    }

    #[test]
    fn overlapping_values_interfere() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        let z = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov_imm(y, 2);
        b.bin(BinOp::Add, z, x.into(), y.into());
        b.ret(Some(z.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[]);
        assert!(g.interferes(entity(x, &f), entity(y, &f)));
        assert!(!g.interferes(entity(x, &f), entity(z, &f)), "x dies at z's def");
    }

    #[test]
    fn move_operands_do_not_interfere() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into()); // y = x; x dead afterwards
        b.ret(Some(y.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[]);
        assert!(!g.interferes(entity(x, &f), entity(y, &f)));
        assert_eq!(g.moves.len(), 1);
        assert_eq!(
            g.moves[0],
            MoveRef {
                dst: entity(y, &f),
                src: entity(x, &f)
            }
        );
    }

    #[test]
    fn move_with_live_source_still_interferes_via_later_defs() {
        // y = x; x used later; x must stay distinct from any def while live.
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        let z = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into());
        b.bin(BinOp::Add, z, x.into(), y.into());
        b.ret(Some(z.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[]);
        // x live across y's def, but it's the move source: no edge from the
        // move itself. However y and x are both live at z's def? No: both
        // die there. x-y interference would only appear if y were redefined
        // while x lives.
        assert!(!g.interferes(entity(x, &f), entity(y, &f)));
    }

    #[test]
    fn call_clobbers_create_precolored_interference() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        b.mov_imm(x, 1);
        b.call(0, vec![], None);
        b.ret(Some(x.into())); // x live across the call
        let f = b.finish();
        let l = Liveness::compute(&f);
        let clob = [PReg(0), PReg(1)];
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &clob);
        let xe = entity(x, &f);
        let p0 = reg_to_entity(PReg(0).into(), f.vreg_count) as u32;
        let p1 = reg_to_entity(PReg(1).into(), f.vreg_count) as u32;
        assert!(g.interferes(xe, p0));
        assert!(g.interferes(xe, p1));
        assert!(g.is_precolored(p0));
        assert_eq!(g.preg_number(p0), 0);
    }

    #[test]
    fn value_not_live_across_call_untouched_by_clobbers() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        b.mov_imm(x, 1);
        b.store(x.into(), x.into(), 0); // x dead before the call
        b.call(0, vec![], None);
        b.ret(None);
        let f = b.finish();
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[PReg(0)]);
        let xe = entity(x, &f);
        let p0 = reg_to_entity(PReg(0).into(), f.vreg_count) as u32;
        assert!(!g.interferes(xe, p0));
    }

    #[test]
    fn use_def_weights_scale_with_freq() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        b.mov_imm(x, 1);
        b.ret(Some(x.into()));
        let mut f = b.finish();
        f.blocks[0].freq = 7.0;
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[]);
        // One def + one use, each weighted 7.
        assert_eq!(g.use_def_weight[entity(x, &f) as usize], 14.0);
    }

    #[test]
    fn different_class_not_in_graph() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let fl = b.new_vreg_of(RegClass::Float);
        b.mov_imm(x, 1);
        b.mov_imm(fl, 2);
        b.bin(BinOp::Add, x, x.into(), x.into());
        b.push(dra_ir::Inst::Bin {
            op: BinOp::Add,
            dst: Reg::Virt(fl),
            lhs: fl.into(),
            rhs: fl.into(),
        });
        b.ret(Some(x.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[]);
        assert_eq!(g.degree(entity(fl, &f)), 0, "float vreg absent from int graph");
        assert_eq!(g.use_def_weight[entity(fl, &f) as usize], 0.0);
    }

    #[test]
    fn graph_sized_to_used_registers() {
        // No physical registers anywhere: the graph is exactly the vregs.
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into());
        b.ret(Some(y.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[]);
        assert_eq!(g.num_nodes(), f.vreg_count as usize);
        assert_eq!(g.preg_limit(), 0);

        // A clobber list widens the window to cover it.
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &[PReg(5)]);
        assert_eq!(g.preg_limit(), 6);
        assert_eq!(g.num_nodes(), f.vreg_count as usize + 6);
    }

    #[test]
    fn float_class_build_excludes_bare_pregs() {
        // Bare physical registers are Int by convention
        // (`Function::class_of`); a float-class graph must neither weight
        // them nor route call clobbers into them.
        let mut b = FunctionBuilder::new("f");
        let fl = b.new_vreg_of(RegClass::Float);
        let fl2 = b.new_vreg_of(RegClass::Float);
        b.mov_imm(fl, 1);
        b.push(dra_ir::Inst::Mov {
            dst: Reg::Virt(fl2),
            src: Reg::Phys(PReg(3)),
        });
        b.call(0, vec![], None);
        b.push(dra_ir::Inst::Bin {
            op: BinOp::Add,
            dst: Reg::Virt(fl),
            lhs: fl.into(),
            rhs: fl2.into(),
        });
        b.ret(Some(fl.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let g = InterferenceGraph::build(&f, &l, RegClass::Float, &[PReg(0), PReg(1)]);
        let p3 = reg_to_entity(Reg::Phys(PReg(3)), f.vreg_count) as u32;
        let p0 = reg_to_entity(Reg::Phys(PReg(0)), f.vreg_count) as u32;
        assert_eq!(g.use_def_weight[p3 as usize], 0.0, "bare preg is Int-class");
        assert_eq!(g.degree(p0), 0, "clobbers only apply to the Int graph");
        // The float move from a preg source is not a float-class move.
        assert!(g.moves.is_empty(), "cross-class mov is not coalescible");
        // The float values themselves still interfere across the call.
        assert!(g.interferes(entity(fl, &f), entity(fl2, &f)));
    }

    #[test]
    fn matches_reference_build_on_clobbered_call() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into());
        b.call(0, vec![], None);
        b.bin(BinOp::Add, y, y.into(), x.into());
        b.ret(Some(y.into()));
        let f = b.finish();
        let l = Liveness::compute(&f);
        let clob = [PReg(0), PReg(2)];
        let g = InterferenceGraph::build(&f, &l, RegClass::Int, &clob);
        let r = reference::build(&f, &l, RegClass::Int, &clob);
        assert_eq!(g.moves, r.moves);
        for e in 0..g.num_nodes() as u32 {
            assert_eq!(g.degree(e), r.degree(e), "degree of {e}");
            let mut ns: Vec<u32> = g.neighbors(e).collect();
            ns.sort_unstable();
            let mut rs: Vec<u32> = r.adj[e as usize].iter().copied().collect();
            rs.sort_unstable();
            assert_eq!(ns, rs, "neighbors of {e}");
            assert_eq!(g.use_def_weight[e as usize], r.use_def_weight[e as usize]);
        }
    }
}
