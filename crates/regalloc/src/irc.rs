//! Iterated register coalescing (George & Appel, TOPLAS 1996).
//!
//! This is the paper's *baseline* allocator for the low-end evaluation
//! ("we replace gcc's register allocation phase by implementing iterated
//! register allocation", Section 10.1) and the host of **differential
//! select** (Section 6): the select stage consults a pluggable
//! [`SelectStrategy`] that, given the set of legal colors for the node
//! being popped, picks the one minimizing differential-encoding cost on
//! the adjacency graph.
//!
//! The implementation follows the worklist formulation in Appel's *Modern
//! Compiler Implementation*, including precolored nodes, Briggs'
//! conservative coalescing and George's test against precolored nodes —
//! but on **dense indexed** state rather than the textbook's sets:
//!
//! * one [`NodeState`] per entity replaces the seven node sets plus
//!   `on_stack`/`coalesced_nodes` (membership test = state compare);
//! * the ordered node/move worklists are [`OrderedIndexSet`] bitsets
//!   with O(1) insert/remove and the same lowest-index-first pop order
//!   the `BTreeSet`s had;
//! * per-node move lists live in one CSR `Vec<u32>` (plus a small
//!   overlay for lists merged by `combine`), and one [`MoveState`] per
//!   move replaces the five move sets;
//! * `get_alias` is a path-compressed union-find walk;
//! * the select stage's legal-color set is a 256-bit [`ColorSet`] mask.
//!
//! Every pop, tie-break, and iteration order is preserved, so the engine
//! produces allocations **bit-identical** to the original set-based
//! implementation — kept as [`reference`] and enforced by
//! `tests/proptest_irc_equiv.rs`. See DESIGN.md §8 ("Dense IRC engine")
//! for the state machine and its invariants.

pub mod reference;

use crate::dense::{ColorSet, OrderedIndexSet};
use crate::interference::{InterferenceGraph, MoveRef};
use crate::spill::rewrite_spills;
use dra_adjgraph::{build_vreg_adjacency, AdjacencyIndex, DiffParams};
use dra_ir::bitset::BitMatrix;
use dra_ir::{Function, Liveness, PReg, Reg, RegClass, VReg};
use std::cell::Cell;

/// How the spill stage scores eviction candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillMetric {
    /// Chaitin's classic `spill_cost / degree`.
    WeightOverDegree,
    /// Global coverage: `spill_cost / overloaded_points_covered` — prefer
    /// values whose eviction relieves many over-pressure points (the
    /// greedy stand-in for Appel & George's ILP-optimal spilling).
    GlobalCoverage,
}

/// How the select stage picks among legal colors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectStrategy {
    /// Pick the lowest-numbered legal color (classic baseline).
    Lowest,
    /// Briggs' biased coloring (the prior art Section 6 builds on): prefer
    /// a color already held by a move partner, so the move later coalesces
    /// for free; otherwise lowest.
    Biased,
    /// Differential select (Section 6): pick the legal color with minimal
    /// adjacency-graph cost under the configured [`DiffParams`].
    Differential,
}

/// Configuration of one allocation run.
#[derive(Clone, Debug)]
pub struct AllocConfig {
    /// Number of allocatable registers (colors), the paper's `RegN`.
    pub k: u16,
    /// Differential parameters used by [`SelectStrategy::Differential`].
    pub params: DiffParams,
    /// Color-selection strategy.
    pub strategy: SelectStrategy,
    /// Physical registers clobbered by calls.
    pub call_clobbers: Vec<PReg>,
    /// Register class being allocated.
    pub class: RegClass,
    /// Spill-candidate scoring.
    pub spill_metric: SpillMetric,
    /// Safety cap on spill-rewrite rounds.
    pub max_rounds: u32,
}

impl AllocConfig {
    /// A baseline configuration with `k` registers and direct encoding.
    pub fn baseline(k: u16) -> Self {
        AllocConfig {
            k,
            params: DiffParams::direct(k),
            strategy: SelectStrategy::Lowest,
            call_clobbers: Vec::new(),
            class: RegClass::Int,
            spill_metric: SpillMetric::WeightOverDegree,
            max_rounds: 24,
        }
    }

    /// A differential-select configuration.
    pub fn differential(params: DiffParams) -> Self {
        AllocConfig {
            k: params.reg_n(),
            params,
            strategy: SelectStrategy::Differential,
            call_clobbers: Vec::new(),
            class: RegClass::Int,
            spill_metric: SpillMetric::WeightOverDegree,
            max_rounds: 24,
        }
    }
}

/// Statistics of a finished allocation.
///
/// The `*_nanos` fields are wall-clock phase timings summed over all
/// rounds. Unlike the work counters they vary run to run; like
/// `RemapStats::search_nanos` they are reported for profiling only and
/// excluded from every determinism comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AllocStats {
    /// Build/select rounds executed (1 = no spilling needed).
    pub rounds: u32,
    /// Virtual registers sent to memory over all rounds.
    pub spilled_vregs: usize,
    /// Move instructions removed by coalescing in the final round.
    pub moves_coalesced: usize,
    /// Wall-clock ns in liveness analysis, all rounds.
    pub liveness_nanos: u64,
    /// Wall-clock ns building the interference graph (and, for
    /// differential select, the vreg adjacency index), all rounds.
    pub build_nanos: u64,
    /// Wall-clock ns in simplify/coalesce/select plus the final rewrite
    /// (or the spill rewrite of a failed round), all rounds.
    pub color_nanos: u64,
    /// Simplify-stage pops (nodes pushed on the select stack), all rounds
    /// (`irc.simplify` telemetry).
    pub simplify_steps: u64,
    /// Coalesce-stage move considerations, all rounds (`irc.coalesce`).
    pub coalesce_steps: u64,
    /// Freeze-stage pops, all rounds (`irc.freeze`).
    pub freeze_steps: u64,
    /// Spill-candidate selections, all rounds (`irc.spill`).
    pub spill_selects: u64,
}

/// Errors the allocator can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// Spilling failed to converge within `max_rounds`.
    DidNotConverge {
        /// The configured round cap.
        max_rounds: u32,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::DidNotConverge { max_rounds } => {
                write!(f, "register allocation did not converge in {max_rounds} rounds")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Allocate registers for `f` in place: on success every `class` operand is
/// physical with number `< k`, spill code has been inserted for spilled
/// values, and coalesced moves have been deleted.
///
/// # Errors
///
/// [`AllocError::DidNotConverge`] if spill rewriting exceeds
/// `cfg.max_rounds` (pathological inputs only: each round strictly reduces
/// the maximum register pressure).
pub fn irc_allocate(f: &mut Function, cfg: &AllocConfig) -> Result<AllocStats, AllocError> {
    irc_allocate_recorded(f, cfg, false).map(|(stats, _)| stats)
}

/// [`irc_allocate`] that can additionally capture an
/// [`AllocationRecord`](crate::allocator::AllocationRecord) for the
/// symbolic checker: a snapshot of the function *entering* the final
/// (successful) round — after every spill rewrite, before color
/// substitution — plus the vreg → color assignment of that round. The
/// snapshot/assignment pair is exactly what [`apply_allocation`] consumed,
/// so [`crate::checker::check_allocation`] can re-derive the rewrite and
/// verify it independently.
///
/// # Errors
///
/// Same as [`irc_allocate`].
pub fn irc_allocate_recorded(
    f: &mut Function,
    cfg: &AllocConfig,
    record: bool,
) -> Result<(AllocStats, Option<crate::allocator::AllocationRecord>), AllocError> {
    let mut stats = AllocStats::default();
    // Vregs created at or beyond this watermark are spill temporaries from
    // earlier rounds; re-spilling them makes no progress, so they carry an
    // effectively infinite spill metric.
    let temp_watermark = f.vreg_count;
    loop {
        if stats.rounds >= cfg.max_rounds {
            return Err(AllocError::DidNotConverge {
                max_rounds: cfg.max_rounds,
            });
        }
        stats.rounds += 1;
        let t0 = std::time::Instant::now();
        let liveness = Liveness::compute(f);
        let t1 = std::time::Instant::now();
        stats.liveness_nanos += (t1 - t0).as_nanos() as u64;
        let ig = InterferenceGraph::build(f, &liveness, cfg.class, &cfg.call_clobbers);
        let adjacency = match cfg.strategy {
            SelectStrategy::Differential => Some(build_vreg_adjacency(f, cfg.class).index()),
            SelectStrategy::Lowest | SelectStrategy::Biased => None,
        };
        let t2 = std::time::Instant::now();
        stats.build_nanos += (t2 - t1).as_nanos() as u64;
        let mut state = IrcState::new(f, ig, adjacency.as_ref(), cfg);
        state.temp_watermark = temp_watermark;
        if cfg.spill_metric == SpillMetric::GlobalCoverage {
            state.coverage = overload_coverage(f, &liveness, cfg);
        }
        state.run();
        stats.simplify_steps += state.simplify_steps;
        stats.coalesce_steps += state.coalesce_steps;
        stats.freeze_steps += state.freeze_steps;
        stats.spill_selects += state.spill_selects;
        if state.spilled_count == 0 {
            let rec = record.then(|| crate::allocator::AllocationRecord {
                symbolic: f.clone(),
                assignment: (0..state.vreg_count)
                    .map(|v| {
                        (state.vreg_classes[v as usize] == cfg.class)
                            .then(|| state.color[state.get_alias(v) as usize])
                            .flatten()
                    })
                    .collect(),
                class: cfg.class,
                k: cfg.k,
                call_clobbers: cfg.call_clobbers.clone(),
            });
            stats.moves_coalesced = apply_allocation(f, &state, cfg);
            stats.color_nanos += t2.elapsed().as_nanos() as u64;
            state.recycle();
            if let Some(idx) = adjacency {
                idx.recycle();
            }
            liveness.recycle();
            return Ok((stats, rec));
        }
        let to_spill: Vec<VReg> = (0..state.vreg_count)
            .filter(|&e| state.node_state[e as usize] == NodeState::Spilled)
            .map(VReg)
            .collect();
        stats.spilled_vregs += to_spill.len();
        state.recycle();
        if let Some(idx) = adjacency {
            idx.recycle();
        }
        liveness.recycle();
        rewrite_spills(f, &to_spill);
        stats.color_nanos += t2.elapsed().as_nanos() as u64;
    }
}

/// Rewrite `f` using the colors in `state`; returns moves deleted.
fn apply_allocation(f: &mut Function, state: &IrcState<'_>, cfg: &AllocConfig) -> usize {
    // Substitute colors for virtual registers of the allocated class.
    for b in &mut f.blocks {
        for i in &mut b.insts {
            i.map_regs(|r| match r {
                Reg::Virt(v) if state.vreg_classes[v.index()] == cfg.class => {
                    let c = state.color[state.get_alias(v.0) as usize]
                        .expect("colored node");
                    Reg::Phys(PReg(c))
                }
                other => other,
            });
        }
    }
    // Delete now-trivial moves (dst == src): these are the coalesced ones.
    let mut removed = 0;
    for b in &mut f.blocks {
        b.insts.retain(|i| {
            if let dra_ir::Inst::Mov { dst, src } = i {
                if dst == src {
                    removed += 1;
                    return false;
                }
            }
            true
        });
    }
    f.recompute_cfg();
    removed
}

/// Count, per virtual register, how many over-pressure program points its
/// live range covers (pressure measured against `cfg.k`).
fn overload_coverage(f: &Function, liveness: &Liveness, cfg: &AllocConfig) -> Vec<u32> {
    let vc = f.vreg_count as usize;
    let mut cover = crate::scratch::take_u32_zeroed(vc);
    // One reusable candidate buffer for the whole sweep instead of a
    // fresh Vec per program point.
    let mut lv: Vec<usize> = Vec::new();
    for (b, _) in f.iter_blocks() {
        liveness.for_each_inst_reverse(f, b, |_, live| {
            lv.clear();
            lv.extend(
                live.iter()
                    .filter(|&e| e < vc && f.vreg_classes[e] == cfg.class),
            );
            if lv.len() > cfg.k as usize {
                for &v in &lv {
                    cover[v] += 1;
                }
            }
        });
    }
    cover
}

/// Where a node currently lives. A node is in exactly the worklist its
/// state names (the invariant the old code kept implicitly across nine
/// sets); membership tests are a state compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum NodeState {
    /// Not participating this round: wrong class, or never referenced.
    Inactive,
    /// A physical register (entity index >= `vreg_count`).
    Precolored,
    /// On `simplify_worklist`.
    Simplify,
    /// On `freeze_worklist`.
    Freeze,
    /// On `spill_worklist`.
    Spill,
    /// Pushed on the select stack.
    OnStack,
    /// Merged into its union-find parent (`alias` chain leads to the
    /// representative).
    Coalesced,
    /// Colored by the select stage.
    Colored,
    /// Marked for memory by the select stage (optimistic push failed).
    Spilled,
}

/// Where a move currently lives; replaces the five move sets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MoveState {
    /// On `worklist_moves`, eligible for coalescing.
    Worklist,
    /// Not yet ready: a coalesce test failed, may be re-enabled.
    Active,
    /// Given up (endpoint frozen). Never reconsidered.
    Frozen,
    /// Endpoints interfere. Never reconsidered.
    Constrained,
    /// Committed: endpoints share a register.
    Coalesced,
    /// Popped from the worklist, decision in flight inside `coalesce`
    /// (the old code's "removed from every set" window).
    Pending,
}

/// Recyclable backing storage for one round's [`IrcState`] — the "IRC
/// node/move arrays" arena. Buffers whose element types are private to
/// this module live here; plain `u32`/`f64` vectors go through
/// [`crate::scratch`]. One arena per thread: `IrcState::new` takes it
/// whole, `IrcState::recycle` puts it back, so successive rounds (and
/// successive functions on the same batch worker) reuse the same
/// capacity. Every field is cleared and re-sized on take, keeping output
/// bit-identical to fresh allocation.
#[derive(Default)]
struct IrcArena {
    vreg_classes: Vec<RegClass>,
    edges: Vec<(u32, u32)>,
    degree: Vec<usize>,
    node_state: Vec<NodeState>,
    color: Vec<Option<u8>>,
    move_state: Vec<MoveState>,
    merged_moves: Vec<Option<Box<[u32]>>>,
    alias: Vec<Cell<u32>>,
    simplify: Option<OrderedIndexSet>,
    freeze: Option<OrderedIndexSet>,
    spill: Option<OrderedIndexSet>,
    wl_moves: Option<OrderedIndexSet>,
}

thread_local! {
    static IRC_ARENA: std::cell::RefCell<IrcArena> =
        std::cell::RefCell::new(IrcArena::default());
}

fn take_irc_arena() -> IrcArena {
    IRC_ARENA.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

fn put_irc_arena(a: IrcArena) {
    IRC_ARENA.with(|slot| *slot.borrow_mut() = a);
}

/// Reuse a pooled [`OrderedIndexSet`] (or build one) at `capacity`.
fn fresh_oset(slot: Option<OrderedIndexSet>, capacity: usize) -> OrderedIndexSet {
    match slot {
        Some(mut s) => {
            s.reset(capacity);
            s
        }
        None => OrderedIndexSet::new(capacity),
    }
}

/// The worklist state of one build/select round.
///
/// The graph lives in the hybrid representation built by
/// [`InterferenceGraph`]: the triangular bit-matrix (`adj_bits`) answers
/// the Briggs/George membership probes in O(1), the append-only `Vec<u32>`
/// adjacency lists drive neighbor walks, and `edges` records each
/// undirected edge once for the recoloring pass. Ownership transfers from
/// the build via [`InterferenceGraph::into_parts`] — no per-node set is
/// re-materialized here.
struct IrcState<'a> {
    k: usize,
    strategy: SelectStrategy,
    params: DiffParams,
    vreg_count: u32,
    vreg_classes: Vec<RegClass>,

    // Graph.
    adj_bits: BitMatrix,
    adj_list: Vec<Vec<u32>>,
    edges: Vec<(u32, u32)>,
    degree: Vec<usize>,
    spill_weight: Vec<f64>,

    // Node state: one entry per entity, plus the three ordered worklists
    // the engine actually pops from.
    node_state: Vec<NodeState>,
    simplify_worklist: OrderedIndexSet,
    freeze_worklist: OrderedIndexSet,
    spill_worklist: OrderedIndexSet,
    select_stack: Vec<u32>,
    /// Nodes in `NodeState::Spilled` (avoids a rescan per round).
    spilled_count: usize,

    // Moves: CSR layout (`move_off[n]..move_off[n+1]` indexes
    // `move_dat`), ascending move indices per node. `combine` unions two
    // lists; the result goes in `merged_moves[representative]` which
    // shadows the CSR row from then on.
    moves: Vec<MoveRef>,
    move_off: Vec<u32>,
    move_dat: Vec<u32>,
    merged_moves: Vec<Option<Box<[u32]>>>,
    move_state: Vec<MoveState>,
    worklist_moves: OrderedIndexSet,

    /// Union-find parent pointers; `Cell` so `get_alias(&self)` can
    /// path-compress. Compression is invisible: a coalesced node's root
    /// never changes (roots are exactly the non-`Coalesced` states), so
    /// pointing any chain member straight at the current root preserves
    /// every future walk's answer.
    alias: Vec<Cell<u32>>,
    color: Vec<Option<u8>>,

    /// Epoch-marked scratch for `briggs_ok` (replaces a per-call
    /// `HashSet`; the count of distinct high-degree neighbors is
    /// order-independent).
    mark: Vec<u32>,
    mark_epoch: u32,

    /// Vregs >= this are spill temporaries (never profitable to spill).
    temp_watermark: u32,
    /// Overloaded-point coverage per vreg (GlobalCoverage metric only).
    coverage: Vec<u32>,

    adjacency: Option<&'a AdjacencyIndex>,

    // Work counters (`irc.*` telemetry).
    simplify_steps: u64,
    coalesce_steps: u64,
    freeze_steps: u64,
    spill_selects: u64,
}

/// Union of two ascending move-index slices (the dense equivalent of
/// `move_list[u].extend(move_list[v].clone())`).
fn merge_moves(a: &[u32], b: &[u32]) -> Box<[u32]> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out.into_boxed_slice()
}

impl<'a> IrcState<'a> {
    fn new(
        f: &Function,
        ig: InterferenceGraph,
        adjacency: Option<&'a AdjacencyIndex>,
        cfg: &AllocConfig,
    ) -> IrcState<'a> {
        let n = ig.num_nodes();
        let vreg_count = ig.vreg_count();
        // Adopt the build's graph wholesale: bit-matrix, adjacency lists,
        // and per-node degrees are already in the shape the worklists need.
        // Everything else comes from the per-thread arena, fully
        // re-initialized.
        let mut ar = take_irc_arena();
        let (adj_bits, mut adj_list, degrees, moves, use_def_weight) = ig.into_parts();
        let mut edges = std::mem::take(&mut ar.edges);
        edges.clear();
        for (a, ns) in adj_list.iter().enumerate() {
            for &b in ns {
                if (a as u32) < b {
                    edges.push((a as u32, b));
                }
            }
        }
        let mut degree = std::mem::take(&mut ar.degree);
        degree.clear();
        degree.extend(degrees.iter().map(|&d| d as usize));
        crate::scratch::put_u32(degrees);
        // Precolored entities: the used physical registers. Registers >= k
        // are still precolored (with their own numbers) so that
        // interference with them is honored, but they are not allocatable
        // colors. They carry effectively infinite degree and no adjacency
        // list (never simplified, never walked).
        let mut color = std::mem::take(&mut ar.color);
        color.clear();
        color.resize(n, None);
        let mut node_state = std::mem::take(&mut ar.node_state);
        node_state.clear();
        node_state.resize(n, NodeState::Inactive);
        for e in vreg_count as usize..n {
            color[e] = Some((e - vreg_count as usize) as u8);
            degree[e] = usize::MAX / 2;
            adj_list[e].clear();
            node_state[e] = NodeState::Precolored;
        }

        // CSR move lists: one slot per (node, move) incidence, ascending
        // move indices per node (counting sort over `mi`). A self-move
        // (dst == src) takes one slot, like its single set entry did.
        let mut move_off = crate::scratch::take_u32();
        move_off.resize(n + 1, 0);
        for m in &moves {
            move_off[m.dst as usize + 1] += 1;
            if m.src != m.dst {
                move_off[m.src as usize + 1] += 1;
            }
        }
        for i in 0..n {
            move_off[i + 1] += move_off[i];
        }
        let mut move_dat = crate::scratch::take_u32();
        move_dat.resize(move_off[n] as usize, 0);
        let mut cursor = crate::scratch::take_u32();
        cursor.extend_from_slice(&move_off[..n]);
        for (mi, m) in moves.iter().enumerate() {
            move_dat[cursor[m.dst as usize] as usize] = mi as u32;
            cursor[m.dst as usize] += 1;
            if m.src != m.dst {
                move_dat[cursor[m.src as usize] as usize] = mi as u32;
                cursor[m.src as usize] += 1;
            }
        }
        crate::scratch::put_u32(cursor);
        let mut worklist_moves = fresh_oset(ar.wl_moves.take(), moves.len());
        for mi in 0..moves.len() {
            worklist_moves.insert(mi as u32);
        }

        let mut vreg_classes = std::mem::take(&mut ar.vreg_classes);
        vreg_classes.clear();
        vreg_classes.extend_from_slice(&f.vreg_classes);
        let mut move_state = std::mem::take(&mut ar.move_state);
        move_state.clear();
        move_state.resize(moves.len(), MoveState::Worklist);
        let mut merged_moves = std::mem::take(&mut ar.merged_moves);
        merged_moves.clear();
        merged_moves.resize(n, None);
        let mut alias = std::mem::take(&mut ar.alias);
        alias.clear();
        alias.extend((0..n as u32).map(Cell::new));
        let mut mark = crate::scratch::take_u32();
        mark.resize(n, 0);
        let mut select_stack = crate::scratch::take_u32();
        select_stack.clear();

        let mut st = IrcState {
            k: cfg.k as usize,
            strategy: cfg.strategy,
            params: cfg.params,
            vreg_count,
            vreg_classes,
            adj_bits,
            adj_list,
            edges,
            degree,
            spill_weight: use_def_weight,
            node_state,
            simplify_worklist: fresh_oset(ar.simplify.take(), vreg_count as usize),
            freeze_worklist: fresh_oset(ar.freeze.take(), vreg_count as usize),
            spill_worklist: fresh_oset(ar.spill.take(), vreg_count as usize),
            select_stack,
            spilled_count: 0,
            move_state,
            moves,
            move_off,
            move_dat,
            merged_moves,
            worklist_moves,
            alias,
            color,
            mark,
            mark_epoch: 0,
            temp_watermark: u32::MAX,
            coverage: Vec::new(),
            adjacency,
            simplify_steps: 0,
            coalesce_steps: 0,
            freeze_steps: 0,
            spill_selects: 0,
        };

        // Initial worklists: only class-matching vregs participate. Values
        // never used or defined would pollute worklists; weight > 0 or any
        // interference/move involvement marks a referenced node.
        for v in 0..vreg_count {
            if st.vreg_classes[v as usize] != cfg.class {
                continue;
            }
            let referenced = st.spill_weight[v as usize] > 0.0
                || !st.adj_list[v as usize].is_empty()
                || !st.moves_of(v).is_empty();
            if !referenced {
                continue;
            }
            if st.degree[v as usize] >= st.k {
                st.node_state[v as usize] = NodeState::Spill;
                st.spill_worklist.insert(v);
            } else if st.move_related(v) {
                st.node_state[v as usize] = NodeState::Freeze;
                st.freeze_worklist.insert(v);
            } else {
                st.node_state[v as usize] = NodeState::Simplify;
                st.simplify_worklist.insert(v);
            }
        }
        st
    }

    /// Return every backing buffer to its pool: the graph parts to
    /// [`crate::scratch`], the typed node/move arrays to the per-thread
    /// [`IrcArena`]. Called at the end of each round; the next round (or
    /// the next function on this worker) then builds its state
    /// allocation-free.
    fn recycle(self) {
        crate::scratch::put_matrix(self.adj_bits);
        crate::scratch::put_adj(self.adj_list);
        crate::scratch::put_moves(self.moves);
        crate::scratch::put_f64(self.spill_weight);
        crate::scratch::put_u32(self.move_off);
        crate::scratch::put_u32(self.move_dat);
        crate::scratch::put_u32(self.mark);
        crate::scratch::put_u32(self.select_stack);
        crate::scratch::put_u32(self.coverage);
        put_irc_arena(IrcArena {
            vreg_classes: self.vreg_classes,
            edges: self.edges,
            degree: self.degree,
            node_state: self.node_state,
            color: self.color,
            move_state: self.move_state,
            merged_moves: self.merged_moves,
            alias: self.alias,
            simplify: Some(self.simplify_worklist),
            freeze: Some(self.freeze_worklist),
            spill: Some(self.spill_worklist),
            wl_moves: Some(self.worklist_moves),
        });
    }

    /// Is `e` a precolored (physical-register) entity?
    #[inline]
    fn is_precolored(&self, e: u32) -> bool {
        e >= self.vreg_count
    }

    /// Is `w` still in the graph? The old `adjacent()` filter: everything
    /// except stacked and merged-away nodes counts as a live neighbor.
    #[inline]
    fn in_graph(&self, w: u32) -> bool {
        !matches!(
            self.node_state[w as usize],
            NodeState::OnStack | NodeState::Coalesced
        )
    }

    /// The move indices touching `n`, ascending.
    #[inline]
    fn moves_of(&self, n: u32) -> &[u32] {
        match &self.merged_moves[n as usize] {
            Some(b) => b,
            None => {
                let s = self.move_off[n as usize] as usize;
                let e = self.move_off[n as usize + 1] as usize;
                &self.move_dat[s..e]
            }
        }
    }

    /// `moves_of(n)[i]`, re-borrowed per call so loop bodies can mutate
    /// move state while walking the list by index. Sound as a snapshot:
    /// the only functions that replace a node's list (`combine`) are
    /// never called while such a walk is in flight.
    #[inline]
    fn nth_move(&self, n: u32, i: usize) -> usize {
        self.moves_of(n)[i] as usize
    }

    /// Does move `m` still count for move-relatedness (old
    /// `node_moves` filter: active or worklist)?
    #[inline]
    fn move_is_live(&self, m: usize) -> bool {
        matches!(self.move_state[m], MoveState::Active | MoveState::Worklist)
    }

    fn move_related(&self, n: u32) -> bool {
        self.moves_of(n).iter().any(|&m| self.move_is_live(m as usize))
    }

    /// Add an edge during coalescing (combine), deduped via the bit-matrix.
    fn add_edge_init(&mut self, a: u32, b: u32) {
        if a == b || !self.adj_bits.set(a as usize, b as usize) {
            return;
        }
        self.edges.push((a, b));
        if !self.is_precolored(a) {
            self.adj_list[a as usize].push(b);
            self.degree[a as usize] += 1;
        }
        if !self.is_precolored(b) {
            self.adj_list[b as usize].push(a);
            self.degree[b as usize] += 1;
        }
    }

    fn run(&mut self) {
        loop {
            if let Some(n) = self.simplify_worklist.peek_min() {
                self.simplify(n);
            } else if let Some(m) = self.worklist_moves.peek_min() {
                self.coalesce(m as usize);
            } else if let Some(n) = self.freeze_worklist.peek_min() {
                self.freeze(n);
            } else if !self.spill_worklist.is_empty() {
                self.select_spill();
            } else {
                break;
            }
        }
        self.assign_colors();
        if self.strategy == SelectStrategy::Differential && self.spilled_count == 0 {
            self.refine_colors();
        }
    }

    /// Iterative recoloring (differential select only): once every node is
    /// colored, each node's adjacency cost can be evaluated against *fully
    /// assigned* neighbors — unlike during the select sweep, where
    /// later-colored neighbors were still blank. Greedily move nodes to
    /// their cheapest legal color until a fixpoint; total cost decreases
    /// monotonically, so this terminates.
    fn refine_colors(&mut self) {
        let Some(adj) = self.adjacency else { return };
        // `adj_list` is asymmetric after coalescing (edges of a merged
        // node transferred to its representative only for neighbors still
        // in the graph at combine time — nodes already on the select
        // stack keep the edge on their side alone). Recoloring needs the
        // *full* symmetric interference neighborhood, so rebuild it from
        // the undirected edge list with aliases resolved. Indexed by
        // entity — no hash iteration anywhere in this pass. Duplicate
        // entries are harmless (the list only drives color removal).
        let mut nbr: Vec<Vec<u32>> = vec![Vec::new(); self.adj_list.len()];
        for i in 0..self.edges.len() {
            let (a, b) = self.edges[i];
            let ra = self.get_alias(a);
            let rb = self.get_alias(b);
            if ra != rb {
                nbr[ra as usize].push(rb);
                nbr[rb as usize].push(ra);
            }
        }
        // Hottest (highest incident adjacency weight) nodes move first:
        // their choices constrain everyone else, so they deserve first
        // pick of the cheap colors. Stable sort over the ascending scan
        // keeps ties in index order, like the sorted set scan it replaces.
        let mut nodes: Vec<u32> = (0..self.vreg_count)
            .filter(|&v| self.node_state[v as usize] == NodeState::Colored)
            .collect();
        nodes.sort_by(|&a, &b| {
            adj.incident_weight(b)
                .partial_cmp(&adj.incident_weight(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for _pass in 0..8 {
            let mut improved = false;
            for &n in &nodes {
                let mut ok = ColorSet::below(self.k as u8);
                for &wa in &nbr[n as usize] {
                    if self.node_state[wa as usize] == NodeState::Colored
                        || self.is_precolored(wa)
                    {
                        if let Some(c) = self.color[wa as usize] {
                            ok.remove(c);
                        }
                    }
                }
                let current = self.color[n as usize].expect("colored");
                ok.insert(current);
                let eval = |c: u8| {
                    adj.node_cost(
                        n,
                        |node| {
                            let a = self.get_alias(node);
                            if a == n || node == n {
                                Some(c)
                            } else {
                                self.color[a as usize]
                            }
                        },
                        self.params,
                    )
                };
                let cur_cost = eval(current);
                let mut best = current;
                let mut best_cost = cur_cost;
                for c in ok.iter() {
                    if c == current {
                        continue;
                    }
                    let cost = eval(c);
                    if cost < best_cost {
                        best_cost = cost;
                        best = c;
                    }
                }
                if best != current {
                    self.color[n as usize] = Some(best);
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        // Re-propagate to coalesced aliases.
        for n in 0..self.vreg_count {
            if self.node_state[n as usize] == NodeState::Coalesced {
                let a = self.get_alias(n);
                self.color[n as usize] = self.color[a as usize];
            }
        }
    }

    fn simplify(&mut self, n: u32) {
        self.simplify_steps += 1;
        self.simplify_worklist.remove(n);
        self.select_stack.push(n);
        self.node_state[n as usize] = NodeState::OnStack;
        // Walking the list by index with a lazy `in_graph` check equals
        // the old collect-then-iterate: `decrement_degree` never changes
        // an on-stack/coalesced verdict and never touches `adj_list[n]`.
        for i in 0..self.adj_list[n as usize].len() {
            let m = self.adj_list[n as usize][i];
            if self.in_graph(m) {
                self.decrement_degree(m);
            }
        }
    }

    fn decrement_degree(&mut self, m: u32) {
        if self.is_precolored(m) {
            return;
        }
        let d = self.degree[m as usize];
        self.degree[m as usize] = d.saturating_sub(1);
        if d == self.k {
            // EnableMoves({m} ∪ Adjacent(m)) — neighbors first, then m,
            // the order the collected slice had.
            for i in 0..self.adj_list[m as usize].len() {
                let w = self.adj_list[m as usize][i];
                if self.in_graph(w) {
                    self.enable_moves_for(w);
                }
            }
            self.enable_moves_for(m);
            if self.node_state[m as usize] == NodeState::Spill {
                self.spill_worklist.remove(m);
            }
            if self.move_related(m) {
                debug_assert!(matches!(
                    self.node_state[m as usize],
                    NodeState::Spill | NodeState::Freeze
                ));
                self.node_state[m as usize] = NodeState::Freeze;
                self.freeze_worklist.insert(m);
            } else {
                debug_assert!(matches!(
                    self.node_state[m as usize],
                    NodeState::Spill | NodeState::Simplify
                ));
                self.node_state[m as usize] = NodeState::Simplify;
                self.simplify_worklist.insert(m);
            }
        }
    }

    /// Re-enable `n`'s deferred moves (old `EnableMoves` body for one
    /// node): every `Active` move returns to the worklist. Reads the CSR
    /// row directly — no filtered collection.
    fn enable_moves_for(&mut self, n: u32) {
        for i in 0..self.moves_of(n).len() {
            let m = self.nth_move(n, i);
            if self.move_state[m] == MoveState::Active {
                self.move_state[m] = MoveState::Worklist;
                self.worklist_moves.insert(m as u32);
            }
        }
    }

    /// Union-find root of `n` with path compression. Roots are exactly
    /// the nodes not in [`NodeState::Coalesced`]; before select they are
    /// uncolored (or precolored) representatives.
    fn get_alias(&self, n: u32) -> u32 {
        if self.node_state[n as usize] != NodeState::Coalesced {
            return n;
        }
        let mut root = self.alias[n as usize].get();
        while self.node_state[root as usize] == NodeState::Coalesced {
            root = self.alias[root as usize].get();
        }
        let mut cur = n;
        while cur != root {
            let next = self.alias[cur as usize].get();
            self.alias[cur as usize].set(root);
            cur = next;
        }
        root
    }

    fn add_work_list(&mut self, u: u32) {
        if !self.is_precolored(u)
            && !self.move_related(u)
            && self.degree[u as usize] < self.k
        {
            debug_assert!(matches!(
                self.node_state[u as usize],
                NodeState::Freeze | NodeState::Simplify
            ));
            if self.node_state[u as usize] == NodeState::Freeze {
                self.freeze_worklist.remove(u);
            }
            self.node_state[u as usize] = NodeState::Simplify;
            self.simplify_worklist.insert(u);
        }
    }

    fn ok(&self, t: u32, r: u32) -> bool {
        self.degree[t as usize] < self.k
            || self.is_precolored(t)
            || self.adj_bits.contains(t as usize, r as usize)
    }

    /// George's test: every live neighbor of `v` is ok against `u`.
    fn george_ok(&self, u: u32, v: u32) -> bool {
        self.adj_list[v as usize]
            .iter()
            .all(|&t| !self.in_graph(t) || self.ok(t, u))
    }

    /// Briggs' conservative test over the combined neighborhoods: fewer
    /// than k *distinct* live neighbors of significant degree. Dedup via
    /// the epoch-marked scratch (count is order-independent).
    fn briggs_ok(&mut self, u: u32, v: u32) -> bool {
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        let mut k_count = 0;
        for node in [u, v] {
            for i in 0..self.adj_list[node as usize].len() {
                let t = self.adj_list[node as usize][i];
                if !self.in_graph(t) || self.mark[t as usize] == epoch {
                    continue;
                }
                self.mark[t as usize] = epoch;
                if self.degree[t as usize] >= self.k {
                    k_count += 1;
                }
            }
        }
        k_count < self.k
    }

    fn coalesce(&mut self, m: usize) {
        self.coalesce_steps += 1;
        self.worklist_moves.remove(m as u32);
        self.move_state[m] = MoveState::Pending;
        let mv = self.moves[m];
        let x = self.get_alias(mv.dst);
        let y = self.get_alias(mv.src);
        let (u, v) = if self.is_precolored(y) {
            (y, x)
        } else {
            (x, y)
        };
        if u == v {
            self.move_state[m] = MoveState::Coalesced;
            self.add_work_list(u);
        } else if self.is_precolored(v) || self.adj_bits.contains(u as usize, v as usize) {
            self.move_state[m] = MoveState::Constrained;
            self.add_work_list(u);
            self.add_work_list(v);
        } else {
            // Colors >= k exist on precolored nodes whose number exceeds
            // the allocatable range; never coalesce into those.
            let u_uncolorable =
                self.is_precolored(u) && (self.color[u as usize].unwrap() as usize) >= self.k;
            let george = self.is_precolored(u) && self.george_ok(u, v);
            let briggs = !self.is_precolored(u) && self.briggs_ok(u, v);
            if !u_uncolorable && (george || briggs) {
                self.move_state[m] = MoveState::Coalesced;
                self.combine(u, v);
                self.add_work_list(u);
            } else {
                self.move_state[m] = MoveState::Active;
            }
        }
        debug_assert_ne!(self.move_state[m], MoveState::Pending);
    }

    fn combine(&mut self, u: u32, v: u32) {
        if self.node_state[v as usize] == NodeState::Freeze {
            self.freeze_worklist.remove(v);
        } else {
            debug_assert_eq!(self.node_state[v as usize], NodeState::Spill);
            self.spill_worklist.remove(v);
        }
        self.node_state[v as usize] = NodeState::Coalesced;
        self.alias[v as usize].set(u);
        let merged = merge_moves(self.moves_of(u), self.moves_of(v));
        self.merged_moves[u as usize] = Some(merged);
        self.enable_moves_for(v);
        for i in 0..self.adj_list[v as usize].len() {
            let t = self.adj_list[v as usize][i];
            if !self.in_graph(t) {
                continue;
            }
            self.add_edge_init(t, u);
            self.decrement_degree(t);
        }
        if self.degree[u as usize] >= self.k && self.node_state[u as usize] == NodeState::Freeze {
            self.freeze_worklist.remove(u);
            self.node_state[u as usize] = NodeState::Spill;
            self.spill_worklist.insert(u);
        }
    }

    fn freeze(&mut self, u: u32) {
        self.freeze_steps += 1;
        self.freeze_worklist.remove(u);
        self.node_state[u as usize] = NodeState::Simplify;
        self.simplify_worklist.insert(u);
        self.freeze_moves(u);
    }

    fn freeze_moves(&mut self, u: u32) {
        for i in 0..self.moves_of(u).len() {
            let m = self.nth_move(u, i);
            // Lazily re-checking liveness per move equals the old
            // snapshot of `node_moves(u)`: the loop body only retires the
            // move it is currently processing.
            if !self.move_is_live(m) {
                continue;
            }
            let mv = self.moves[m];
            let (x, y) = (mv.dst, mv.src);
            let v = if self.get_alias(y) == self.get_alias(u) {
                self.get_alias(x)
            } else {
                self.get_alias(y)
            };
            // Only active moves retire to frozen; a worklist move stays
            // queued (the old code inserted it into `frozen_moves` too,
            // but never consulted that set — worklist membership won).
            if self.move_state[m] == MoveState::Active {
                self.move_state[m] = MoveState::Frozen;
            }
            if !self.is_precolored(v)
                && !self.move_related(v)
                && self.degree[v as usize] < self.k
            {
                debug_assert!(matches!(
                    self.node_state[v as usize],
                    NodeState::Freeze | NodeState::Simplify
                ));
                if self.node_state[v as usize] == NodeState::Freeze {
                    self.freeze_worklist.remove(v);
                }
                self.node_state[v as usize] = NodeState::Simplify;
                self.simplify_worklist.insert(v);
            }
        }
    }

    fn select_spill(&mut self) {
        self.spill_selects += 1;
        // Lowest spill metric first: cheap, high-degree values go to
        // memory. Ascending scan, strict-improvement replacement — the
        // first minimal element wins ties, like `Iterator::min_by` did.
        let mut best: Option<(u32, f64)> = None;
        for n in self.spill_worklist.iter() {
            let metric = self.spill_metric(n);
            match best {
                Some((_, bm)) if !(metric < bm) => {}
                _ => best = Some((n, metric)),
            }
        }
        let m = best.expect("nonempty spill worklist").0;
        self.spill_worklist.remove(m);
        self.node_state[m as usize] = NodeState::Simplify;
        self.simplify_worklist.insert(m);
        self.freeze_moves(m);
    }

    fn spill_metric(&self, e: u32) -> f64 {
        if e >= self.temp_watermark && e < self.vreg_count {
            // Spill temporary: choosing it again would loop forever.
            return f64::MAX / 4.0;
        }
        let deg = self.degree[e as usize].max(1) as f64;
        if let Some(&cover) = self.coverage.get(e as usize) {
            // Global metric: coverage of over-pressure points dominates,
            // degree breaks ties — cheap, wide-coverage ranges first.
            return self.spill_weight[e as usize] / (deg + 4.0 * cover as f64);
        }
        self.spill_weight[e as usize] / deg
    }

    fn assign_colors(&mut self) {
        while let Some(n) = self.select_stack.pop() {
            let mut ok = ColorSet::below(self.k as u8);
            for i in 0..self.adj_list[n as usize].len() {
                let w = self.adj_list[n as usize][i];
                let wa = self.get_alias(w);
                if self.node_state[wa as usize] == NodeState::Colored || self.is_precolored(wa)
                {
                    if let Some(c) = self.color[wa as usize] {
                        ok.remove(c);
                    }
                }
            }
            if ok.is_empty() {
                self.node_state[n as usize] = NodeState::Spilled;
                self.spilled_count += 1;
            } else {
                self.node_state[n as usize] = NodeState::Colored;
                let c = self.choose_color(n, ok);
                self.color[n as usize] = Some(c);
            }
        }
        for n in 0..self.vreg_count {
            if self.node_state[n as usize] == NodeState::Coalesced {
                let a = self.get_alias(n);
                self.color[n as usize] = self.color[a as usize];
            }
        }
    }

    /// The select-stage hook: baseline takes the lowest color;
    /// differential select (Section 6) scores each candidate against the
    /// adjacency graph and takes the cheapest.
    fn choose_color(&self, n: u32, ok: ColorSet) -> u8 {
        match self.strategy {
            SelectStrategy::Lowest => ok.first().expect("nonempty"),
            SelectStrategy::Biased => {
                // A color already assigned to a move partner lets the
                // remaining move coalesce away at zero cost.
                for &m in self.moves_of(n) {
                    let mv = self.moves[m as usize];
                    let other = if self.get_alias(mv.dst) == self.get_alias(n) {
                        self.get_alias(mv.src)
                    } else {
                        self.get_alias(mv.dst)
                    };
                    if self.node_state[other as usize] == NodeState::Colored
                        || self.is_precolored(other)
                    {
                        if let Some(c) = self.color[other as usize] {
                            if ok.contains(c) {
                                return c;
                            }
                        }
                    }
                }
                ok.first().expect("nonempty")
            }
            SelectStrategy::Differential => {
                let g = self.adjacency.expect("adjacency graph present");
                let mut best = ok.first().expect("nonempty");
                let mut best_cost = f64::INFINITY;
                for c in ok.iter() {
                    let cost = g.node_cost(
                        n,
                        |node| {
                            let a = self.get_alias(node);
                            if a == n || node == n {
                                Some(c)
                            } else if self.is_precolored(a)
                                || self.node_state[a as usize] == NodeState::Colored
                            {
                                self.color[a as usize]
                            } else {
                                None
                            }
                        },
                        self.params,
                    );
                    if cost < best_cost {
                        best_cost = cost;
                        best = c;
                    }
                }
                best
            }
        }
    }
}

/// Convenience wrapper: allocate a whole program in place.
///
/// # Errors
///
/// Propagates the first [`AllocError`] from any function.
pub fn irc_allocate_program(
    p: &mut dra_ir::Program,
    cfg: &AllocConfig,
) -> Result<AllocStats, AllocError> {
    let mut total = AllocStats::default();
    for f in &mut p.funcs {
        let s = irc_allocate(f, cfg)?;
        total.rounds = total.rounds.max(s.rounds);
        total.spilled_vregs += s.spilled_vregs;
        total.moves_coalesced += s.moves_coalesced;
        total.liveness_nanos += s.liveness_nanos;
        total.build_nanos += s.build_nanos;
        total.color_nanos += s.color_nanos;
        total.simplify_steps += s.simplify_steps;
        total.coalesce_steps += s.coalesce_steps;
        total.freeze_steps += s.freeze_steps;
        total.spill_selects += s.spill_selects;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_ir::{BinOp, Cond, FunctionBuilder};

    /// Every operand physical and `< k`; code executes the same way.
    fn assert_allocated(f: &Function, k: u16) {
        assert!(f.is_fully_physical(), "virtual registers remain:\n{f}");
        for i in f.iter_insts() {
            for r in i.accesses() {
                let p = r.expect_phys();
                assert!(
                    (p.number() as u16) < k,
                    "register {p} out of range in `{i}`"
                );
            }
        }
    }

    #[test]
    fn straight_line_no_spills() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        let z = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov_imm(y, 2);
        b.bin(BinOp::Add, z, x.into(), y.into());
        b.ret(Some(z.into()));
        let mut f = b.finish();
        let stats = irc_allocate(&mut f, &AllocConfig::baseline(4)).unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.spilled_vregs, 0);
        assert_allocated(&f, 4);
    }

    #[test]
    fn interfering_values_get_distinct_registers() {
        let mut b = FunctionBuilder::new("f");
        let vs: Vec<_> = (0..3).map(|_| b.new_vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        let s = b.new_vreg();
        b.bin(BinOp::Add, s, vs[0].into(), vs[1].into());
        b.bin(BinOp::Add, s, s.into(), vs[2].into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        irc_allocate(&mut f, &AllocConfig::baseline(4)).unwrap();
        assert_allocated(&f, 4);
        // vs[0], vs[1], vs[2] all live together at the first add: the three
        // first mov_imm destinations must be pairwise distinct.
        let dsts: Vec<u8> = f.blocks[0]
            .insts
            .iter()
            .take(3)
            .flat_map(|i| i.defs())
            .map(|r| r.expect_phys().number())
            .collect();
        assert_eq!(dsts.len(), 3);
        assert_ne!(dsts[0], dsts[1]);
        assert_ne!(dsts[0], dsts[2]);
        assert_ne!(dsts[1], dsts[2]);
    }

    #[test]
    fn high_pressure_forces_spills() {
        let mut b = FunctionBuilder::new("f");
        let vs: Vec<_> = (0..8).map(|_| b.new_vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        let s = b.new_vreg();
        b.mov_imm(s, 0);
        for &v in &vs {
            b.bin(BinOp::Add, s, s.into(), v.into());
        }
        b.ret(Some(s.into()));
        let mut f = b.finish();
        let stats = irc_allocate(&mut f, &AllocConfig::baseline(4)).unwrap();
        assert!(stats.spilled_vregs > 0, "8 live values in 4 registers");
        assert!(stats.rounds > 1);
        assert_allocated(&f, 4);
        assert!(f.count_insts(|i| i.is_spill()) > 0);
    }

    #[test]
    fn moves_get_coalesced() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        let y = b.new_vreg();
        let z = b.new_vreg();
        b.mov_imm(x, 1);
        b.mov(y, x.into());
        b.mov(z, y.into());
        b.ret(Some(z.into()));
        let mut f = b.finish();
        let stats = irc_allocate(&mut f, &AllocConfig::baseline(4)).unwrap();
        assert_eq!(stats.moves_coalesced, 2, "both moves vanish");
        assert_eq!(f.count_insts(|i| i.is_move()), 0);
        assert_allocated(&f, 4);
    }

    #[test]
    fn call_clobbers_respected() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg();
        b.mov_imm(x, 1);
        b.call(0, vec![], None);
        b.ret(Some(x.into()));
        let mut f = b.finish();
        let mut cfg = AllocConfig::baseline(4);
        cfg.call_clobbers = vec![PReg(0), PReg(1)];
        irc_allocate(&mut f, &cfg).unwrap();
        assert_allocated(&f, 4);
        // x lives across the call: it must not sit in r0 or r1.
        let x_loc = f
            .iter_insts()
            .find_map(|i| match i {
                dra_ir::Inst::Ret { value: Some(r) } => Some(r.expect_phys().number()),
                _ => None,
            })
            .unwrap();
        assert!(x_loc >= 2, "x in clobbered r{x_loc}");
    }

    #[test]
    fn loop_allocation_stays_valid() {
        let mut b = FunctionBuilder::new("f");
        let i = b.new_vreg();
        let acc = b.new_vreg();
        let n = b.new_vreg();
        b.mov_imm(i, 0);
        b.mov_imm(acc, 0);
        b.mov_imm(n, 100);
        let h = b.new_block();
        let body = b.new_block();
        let ex = b.new_block();
        b.br(h);
        b.switch_to(h);
        b.cond_br(Cond::Lt, i.into(), n.into(), body, ex);
        b.switch_to(body);
        b.bin(BinOp::Add, acc, acc.into(), i.into());
        b.bin_imm(BinOp::Add, i, i.into(), 1);
        b.br(h);
        b.switch_to(ex);
        b.ret(Some(acc.into()));
        let mut f = b.finish();
        dra_ir::loops::assign_static_frequencies(&mut f);
        irc_allocate(&mut f, &AllocConfig::baseline(4)).unwrap();
        assert_allocated(&f, 4);
        // Three loop-carried values in 4 registers: no spills expected.
        assert_eq!(f.count_insts(|i| i.is_spill()), 0);
    }

    #[test]
    fn differential_select_produces_valid_allocation() {
        let mut b = FunctionBuilder::new("f");
        let vs: Vec<_> = (0..6).map(|_| b.new_vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        let s = b.new_vreg();
        b.mov_imm(s, 0);
        for &v in &vs {
            b.bin(BinOp::Add, s, s.into(), v.into());
        }
        b.ret(Some(s.into()));
        let mut f = b.finish();
        let cfg = AllocConfig::differential(DiffParams::lowend_12_8());
        irc_allocate(&mut f, &cfg).unwrap();
        assert_allocated(&f, 12);
    }

    #[test]
    fn differential_select_lowers_adjacency_cost() {
        // Compare adjacency cost (post-allocation, register granularity)
        // between baseline-lowest and differential select on the same
        // moderately-pressured function.
        let build = || {
            let mut b = FunctionBuilder::new("f");
            let vs: Vec<_> = (0..10).map(|_| b.new_vreg()).collect();
            for (i, &v) in vs.iter().enumerate() {
                b.mov_imm(v, i as i32);
            }
            let s = b.new_vreg();
            b.mov_imm(s, 0);
            // Access pattern that hops between distant values.
            for k in 0..10 {
                let v = vs[(k * 7) % 10];
                b.bin(BinOp::Add, s, s.into(), v.into());
            }
            b.ret(Some(s.into()));
            b.finish()
        };
        let params = DiffParams::new(12, 4); // tight DiffN stresses select
        let mut base = build();
        let mut cfg = AllocConfig::baseline(12);
        cfg.params = params;
        irc_allocate(&mut base, &cfg).unwrap();
        let base_cost = dra_adjgraph::build_preg_adjacency(&base, RegClass::Int, 12)
            .assignment_cost(|n| Some(n as u8), params);

        let mut diff = build();
        let mut dcfg = AllocConfig::differential(params);
        dcfg.k = 12;
        irc_allocate(&mut diff, &dcfg).unwrap();
        let diff_cost = dra_adjgraph::build_preg_adjacency(&diff, RegClass::Int, 12)
            .assignment_cost(|n| Some(n as u8), params);
        assert!(
            diff_cost <= base_cost,
            "differential select ({diff_cost}) no worse than baseline ({base_cost})"
        );
    }

    #[test]
    fn spilled_code_still_references_valid_slots() {
        let mut b = FunctionBuilder::new("f");
        let vs: Vec<_> = (0..10).map(|_| b.new_vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        let s = b.new_vreg();
        b.mov_imm(s, 0);
        for &v in &vs {
            b.bin(BinOp::Add, s, s.into(), v.into());
        }
        b.ret(Some(s.into()));
        let mut f = b.finish();
        irc_allocate(&mut f, &AllocConfig::baseline(3)).unwrap();
        for i in f.iter_insts() {
            match i {
                dra_ir::Inst::SpillLoad { slot, .. }
                | dra_ir::Inst::SpillStore { slot, .. } => {
                    assert!(slot.0 < f.spill_slots, "slot out of range");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn program_allocation_covers_all_functions() {
        let mut b1 = FunctionBuilder::new("main");
        let x = b1.new_vreg();
        b1.mov_imm(x, 1);
        b1.call(1, vec![x.into()], Some(x));
        b1.ret(Some(x.into()));
        let mut b2 = FunctionBuilder::new("leaf");
        let p = b2.new_param();
        let y = b2.new_vreg();
        b2.bin_imm(BinOp::Add, y, p.into(), 1);
        b2.ret(Some(y.into()));
        let mut prog = dra_ir::Program {
            funcs: vec![b1.finish(), b2.finish()],
            entry: 0,
        };
        irc_allocate_program(&mut prog, &AllocConfig::baseline(4)).unwrap();
        for f in &prog.funcs {
            assert_allocated(f, 4);
        }
    }

    #[test]
    fn work_counters_cover_all_four_stages() {
        // A program that drives the engine through all four stages with
        // k = 4. Two disjoint near-cliques (a0..a4 and b0..b4) keep both
        // sides of the move `y <- x` surrounded by >= k distinct
        // significant-degree neighbors, so Briggs defers the move
        // (coalesce -> active) twice; spill selection erodes the a-side
        // until x's degree passes through k, which re-enables the move
        // and parks x on the freeze worklist; the retried coalesce still
        // fails against the intact b-side, so x is popped by freeze.
        // Extra uses keep x and y's spill metric above the clique
        // members' so spill selection never freezes the move itself.
        let mut b = FunctionBuilder::new("f");
        let a: Vec<_> = (0..5).map(|_| b.new_vreg()).collect();
        let x = b.new_vreg();
        let y = b.new_vreg();
        let bs: Vec<_> = (0..5).map(|_| b.new_vreg()).collect();
        let s = b.new_vreg();
        b.mov_imm(s, 0);
        for (i, &v) in a.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        b.bin(BinOp::Add, s, s.into(), a[4].into()); // a4 dies before x
        b.mov_imm(x, 9);
        b.bin(BinOp::Add, s, s.into(), x.into()); // weight so spill
        b.bin(BinOp::Add, s, s.into(), x.into()); // selection skips x
        for &v in a.iter().take(4) {
            b.bin(BinOp::Add, s, s.into(), v.into()); // a-side dies pre-move
        }
        b.mov(y, x.into()); // x's last use: endpoints don't interfere
        for (i, &v) in bs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        b.bin(BinOp::Add, s, s.into(), bs[4].into());
        for &v in bs.iter().take(4) {
            b.bin(BinOp::Add, s, s.into(), v.into());
        }
        for _ in 0..3 {
            b.bin(BinOp::Add, s, s.into(), y.into()); // y's weight
        }
        b.ret(Some(s.into()));
        let mut f = b.finish();
        let stats = irc_allocate(&mut f, &AllocConfig::baseline(4)).unwrap();
        assert!(stats.simplify_steps > 0, "{stats:?}");
        assert!(stats.coalesce_steps > 0, "{stats:?}");
        assert!(stats.freeze_steps > 0, "{stats:?}");
        assert!(stats.spill_selects > 0, "{stats:?}");
        assert_allocated(&f, 4);
    }

    /// Differential select + refinement runs on indexed state only — no
    /// code path may depend on hash iteration order. Repeated runs on
    /// the same input must agree bit for bit.
    #[test]
    fn differential_allocation_is_deterministic() {
        let build = || {
            let mut b = FunctionBuilder::new("f");
            let vs: Vec<_> = (0..14).map(|_| b.new_vreg()).collect();
            for (i, &v) in vs.iter().enumerate() {
                b.mov_imm(v, i as i32);
            }
            let s = b.new_vreg();
            b.mov_imm(s, 0);
            for k in 0..14 {
                let v = vs[(k * 5) % 14];
                b.bin(BinOp::Add, s, s.into(), v.into());
            }
            b.ret(Some(s.into()));
            b.finish()
        };
        let run = || {
            let mut f = build();
            let stats = irc_allocate(&mut f, &AllocConfig::differential(DiffParams::new(12, 4)))
                .unwrap();
            (f, stats)
        };
        let (f0, s0) = run();
        for _ in 0..5 {
            let (f, s) = run();
            assert_eq!(f0, f, "allocation must not vary run to run");
            assert_eq!(
                (s0.rounds, s0.spilled_vregs, s0.moves_coalesced),
                (s.rounds, s.spilled_vregs, s.moves_coalesced)
            );
        }
    }
}

#[cfg(test)]
mod biased_tests {
    use super::*;
    use dra_ir::FunctionBuilder;

    /// Biased coloring keeps a frozen move's endpoints in one register
    /// when a shared color is legal, so the move dies at rewrite time.
    #[test]
    fn biased_coloring_matches_move_partners() {
        // A move that conservative coalescing may freeze under pressure:
        // both endpoints highly connected.
        let mut b = FunctionBuilder::new("f");
        let vs: Vec<_> = (0..3).map(|_| b.new_vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.mov_imm(v, i as i32);
        }
        let x = b.new_vreg();
        let y = b.new_vreg();
        b.mov_imm(x, 9);
        b.mov(y, x.into());
        let s = b.new_vreg();
        b.mov_imm(s, 0);
        for &v in &vs {
            b.bin(dra_ir::BinOp::Add, s, s.into(), v.into());
        }
        b.bin(dra_ir::BinOp::Add, s, s.into(), y.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        let mut cfg = AllocConfig::baseline(4);
        cfg.strategy = SelectStrategy::Biased;
        irc_allocate(&mut f, &cfg).unwrap();
        assert!(f.is_fully_physical());
        // Either coalescing or bias removed the x -> y move.
        assert_eq!(f.count_insts(|i| i.is_move()), 0, "{f}");
    }

    #[test]
    fn biased_never_worse_than_lowest_on_moves() {
        let build = || {
            let mut b = FunctionBuilder::new("f");
            let vs: Vec<_> = (0..6).map(|_| b.new_vreg()).collect();
            for (i, &v) in vs.iter().enumerate() {
                b.mov_imm(v, i as i32);
            }
            let mut prev = vs[0];
            for _ in 0..4 {
                let n = b.new_vreg();
                b.mov(n, prev.into());
                prev = n;
            }
            let s = b.new_vreg();
            b.mov_imm(s, 0);
            for &v in &vs {
                b.bin(dra_ir::BinOp::Add, s, s.into(), v.into());
            }
            b.bin(dra_ir::BinOp::Add, s, s.into(), prev.into());
            b.ret(Some(s.into()));
            b.finish()
        };
        let run = |strategy: SelectStrategy| {
            let mut f = build();
            let mut cfg = AllocConfig::baseline(8);
            cfg.strategy = strategy;
            irc_allocate(&mut f, &cfg).unwrap();
            f.count_insts(|i| i.is_move())
        };
        assert!(run(SelectStrategy::Biased) <= run(SelectStrategy::Lowest));
    }
}
