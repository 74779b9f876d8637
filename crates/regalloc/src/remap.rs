//! Differential remapping (Section 5) — the post-pass approach.
//!
//! After any register allocator has run, the register *numbers* may be
//! permuted freely: a permutation preserves the only constraint a
//! traditional allocator enforces (co-live ranges in distinct registers)
//! while changing the differential-encoding cost. This pass searches the
//! permutation space for a low-cost register vector the paper's way:
//!
//! * **exhaustive** search for small `RegN` (the paper notes
//!   `O(RegN² · RegN!)` is tractable there); a completed enumeration
//!   certifies the optimum,
//! * otherwise the paper's **greedy pairwise-swap descent** restarted from
//!   many random initial register vectors (1000 in the paper).
//!
//! # Incremental delta-cost evaluation
//!
//! Both searches move through permutation space by **transpositions**: a
//! swap of the numbers held by nodes `x` and `y` can only change the
//! violation status of edges incident to `x` or `y`, so a candidate is
//! scored with [`AdjacencyIndex::swap_delta`] in `O(deg(x) + deg(y))`
//! instead of re-walking the whole edge set (`O(E)`). The greedy
//! [`descend`] goes further and keeps each sweep's deltas in a table,
//! rescoring only the pairs whose inputs the applied swap changed, and
//! replays whole sweeps that an earlier restart of the same search already
//! ran from the same register vector ([`SweepMemo`]).
//! Accumulated floating-point drift is shed by recomputing the exact cost
//! ([`AdjacencyIndex::perm_cost`]) whenever a new champion is recorded and
//! once per descent before results are compared. That recomputation is
//! also where every register vector is checked against `RegN`; the
//! scorers in between trust it (see [`AdjacencyIndex`]).
//!
//! # Deterministic parallel restarts under one budget
//!
//! The multistart runs `starts` descents; descent `i` starts from the
//! start vector of index `i`. Descents are independent, so they run on
//! [`std::thread::scope`] threads ([`RemapConfig::threads`]). Each start
//! vector is a pure function of `(seed, start index)` (SplitMix64-finalized),
//! the shared [`RemapConfig::eval_budget`] is pre-split into per-start
//! slices (`budget / starts`, the remainder spread over the lowest
//! indices), and the winner is the lowest-cost result with ties broken by
//! **lowest start index**. Nothing a descent does depends on any other, so
//! the chosen `(permutation, cost)` *and every work counter*
//! ([`RemapStats::evaluations`], [`RemapStats::starts_run`]) are
//! bit-identical at any thread count, including the sequential
//! `threads = 1` path.
//!
//! # Searches a session already ran
//!
//! A search is a pure function of its input: the preg adjacency graph
//! and every [`RemapConfig`] field except `threads`. A [`RemapCache`]
//! maps that whole input to the search's result, so a caller that keeps
//! one (a compile session) runs each distinct search once and replays
//! repeats. A replay rewrites the function and returns the
//! [`RemapStats`] exactly as the search did, work counters included.

use dra_adjgraph::{build_preg_adjacency, AdjacencyGraph, AdjacencyIndex, DiffParams};
use dra_ir::cache::LruCache;
use dra_ir::{Function, PReg, Reg, RegClass};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Improvement threshold for incrementally-maintained costs: deltas within
/// this of zero are treated as "no change" so floating-point noise cannot
/// masquerade as an improving swap (which could cycle the descent).
const EPS: f64 = 1e-9;

/// Default search-wide evaluation budget ([`RemapConfig::eval_budget`]).
/// Shared by all restarts: at the paper's 1000 starts each start's slice is
/// 4000 evaluations, about 14 times what a greedy descent at the
/// evaluation's setup actually spends. There `RegN = 12` with the call
/// clobbers `r0` and `r1` pinned, so 10 slots are free, a sweep has 45
/// candidate pairs, and a descent runs 6.4 sweeps (~288 evaluations) on
/// average. The default never binds on realistic inputs; it exists so a
/// pathological cost surface degrades to a bounded search instead of an
/// unbounded one.
pub const DEFAULT_EVAL_BUDGET: u64 = 4_000_000;

/// Which searcher produced the final register vector of a remap run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RemapWinner {
    /// No search beat the allocator's own numbering (or none was needed).
    #[default]
    Identity,
    /// The small-`RegN` exhaustive enumeration.
    Exhaustive,
    /// A greedy-descent restart.
    Greedy,
}

impl RemapWinner {
    /// Short name used in telemetry counter keys (`remap.win.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            RemapWinner::Identity => "identity",
            RemapWinner::Exhaustive => "exhaustive",
            RemapWinner::Greedy => "greedy",
        }
    }
}

/// Configuration of the remapping search.
#[derive(Clone, Debug)]
pub struct RemapConfig {
    /// Differential parameters (`RegN`, `DiffN`).
    pub params: DiffParams,
    /// Register class whose numbers are permuted.
    pub class: RegClass,
    /// Use exhaustive permutation search when `RegN <=` this bound, the
    /// greedy multistart otherwise.
    pub exhaustive_limit: u16,
    /// Number of greedy restarts (the paper uses 1000, which is the
    /// default).
    pub starts: u32,
    /// Registers that must keep their numbers (special-purpose registers,
    /// Section 9.2, or calling-convention anchors, Section 9.3).
    pub pinned: Vec<PReg>,
    /// RNG seed for the restart vectors (reproducibility).
    pub seed: u64,
    /// Worker threads for the restarts; `0` means one per available
    /// CPU. The search result and all work counters are identical at any
    /// thread count.
    pub threads: usize,
    /// Search-wide evaluation budget: the maximum swap candidates the
    /// whole run may score. A greedy-descent candidate read from the
    /// descent's delta table ([`descend`]) counts 1 like a fresh
    /// [`AdjacencyIndex::swap_delta`] call, and a sweep replayed from the
    /// search's [`SweepMemo`] counts every candidate of the sweep.
    /// Pre-split deterministically across the restarts (`budget / starts`
    /// each, remainder to the lowest indices), so the cutoff is a pure
    /// function of the input and both the result and the counters stay
    /// bit-identical at any [`RemapConfig::threads`]. The exhaustive
    /// search spends the budget as a single task.
    pub eval_budget: u64,
}

impl RemapConfig {
    /// Defaults for the given parameters: exhaustive up to `RegN = 7`, the
    /// paper's 1000 greedy restarts, nothing pinned, one worker thread per
    /// CPU.
    pub fn new(params: DiffParams) -> Self {
        RemapConfig {
            params,
            class: RegClass::Int,
            exhaustive_limit: 7,
            starts: 1000,
            pinned: Vec::new(),
            seed: 0x5eed,
            threads: 0,
            eval_budget: DEFAULT_EVAL_BUDGET,
        }
    }

    /// Override the worker thread count (`0` = one per available CPU).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Outcome of one remapping run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RemapStats {
    /// Adjacency cost before remapping (identity permutation).
    pub cost_before: f64,
    /// Adjacency cost achieved.
    pub cost_after: f64,
    /// Whether the exhaustive search was used.
    pub exhaustive: bool,
    /// Swap candidates scored. A greedy-descent swap candidate counts 1
    /// whether [`descend`] scored it with `swap_delta`, read it from its
    /// delta table or skipped it in a sweep replayed from the
    /// [`SweepMemo`], so this is the work of the full-rescoring search.
    /// A pure function of the input — identical at any thread count.
    pub evaluations: u64,
    /// Restarts actually executed (0 for exhaustive runs; below
    /// `RemapConfig::starts` only when the eval budget is smaller than the
    /// restart count, in which case zero-slice restarts are skipped). A
    /// pure function of the input.
    pub starts_run: u32,
    /// Which searcher produced `cost_after`.
    pub winner: RemapWinner,
    /// True when `cost_after` is a certified optimum: the exhaustive
    /// enumeration completed within budget, or a zero-cost vector
    /// (unbeatable) was found.
    pub certified: bool,
    /// Wall-clock time of the whole remap (graph build + search), ns.
    pub search_nanos: u64,
    /// True when this entry marks a function that *fell back to direct
    /// encoding* instead of being remapped: the pipeline's degradation
    /// lattice replaces the failed differential compilation with a direct
    /// one and records the substitution here (no search ran; every work
    /// counter is zero).
    pub degraded: bool,
}

impl RemapStats {
    /// The marker entry the degradation lattice records for a function
    /// whose differential path failed and was recompiled direct.
    pub fn degraded_marker() -> RemapStats {
        RemapStats {
            cost_before: 0.0,
            cost_after: 0.0,
            exhaustive: false,
            evaluations: 0,
            starts_run: 0,
            winner: RemapWinner::Identity,
            certified: false,
            search_nanos: 0,
            degraded: true,
        }
    }
}

/// Work counters of a search.
#[derive(Clone, Copy, Debug, Default)]
struct SearchCounters {
    evaluations: u64,
    starts_run: u32,
}

impl SearchCounters {
    fn absorb(&mut self, other: SearchCounters) {
        self.evaluations += other.evaluations;
        self.starts_run += other.starts_run;
    }
}

/// Result of one complete search (exhaustive or the greedy multistart).
struct SearchOutcome {
    rv: Vec<u8>,
    cost: f64,
    winner: RemapWinner,
    certified: bool,
    counters: SearchCounters,
}

/// Remap the register numbers of an allocated function in place.
///
/// With a `cache`, a search whose whole input the cache has seen is not
/// run again: the stored register vector is applied and the stored
/// statistics are returned, `search_nanos` aside (see [`RemapCache`]).
///
/// # Panics
///
/// Panics if `f` still contains virtual registers of `cfg.class`, or uses
/// physical numbers `>= RegN`.
pub fn remap_function(
    f: &mut Function,
    cfg: &RemapConfig,
    cache: Option<&RemapCache>,
) -> RemapStats {
    let t0 = Instant::now();
    let g = build_preg_adjacency(f, cfg.class, cfg.params.reg_n());
    let found = match cache {
        Some(cache) => cache.get_or_search(SearchKey::new(&g, cfg), || search(&g, cfg)),
        None => search(&g, cfg),
    };
    if let Some(rv) = &found.rv {
        apply_permutation(f, rv, cfg.class);
    }
    RemapStats {
        search_nanos: t0.elapsed().as_nanos() as u64,
        ..found.stats
    }
}

/// What a search decided: the register vector to apply (`None` keeps the
/// allocator's numbering) and its statistics with `search_nanos` zero.
#[derive(Clone, Debug)]
struct Found {
    rv: Option<Vec<u8>>,
    stats: RemapStats,
}

/// The paper's search over `g`: exhaustive enumeration when
/// `RegN <= exhaustive_limit`, the greedy multistart otherwise.
fn search(g: &AdjacencyGraph, cfg: &RemapConfig) -> Found {
    let reg_n = cfg.params.reg_n();
    let idx = g.index();
    let cost_before = idx.perm_cost(&identity(reg_n as usize), cfg.params);

    // Already perfect — including the no-edges case, e.g. remapping the
    // float class of integer-only code. Nothing to search or rewrite.
    if cost_before == 0.0 {
        idx.recycle();
        return Found {
            rv: None,
            stats: RemapStats {
                cost_before: 0.0,
                cost_after: 0.0,
                exhaustive: false,
                evaluations: 0,
                starts_run: 0,
                winner: RemapWinner::Identity,
                certified: true,
                search_nanos: 0,
                degraded: false,
            },
        };
    }

    let use_exhaustive = reg_n <= cfg.exhaustive_limit;
    let outcome = if use_exhaustive {
        exhaustive_search(&idx, cfg)
    } else {
        multistart(&idx, cfg)
    };

    idx.recycle();
    // Keep the identity if the search could not improve on it.
    let improved = outcome.cost < cost_before;
    Found {
        stats: RemapStats {
            cost_before,
            cost_after: if improved { outcome.cost } else { cost_before },
            exhaustive: use_exhaustive,
            evaluations: outcome.counters.evaluations,
            starts_run: outcome.counters.starts_run,
            winner: if improved {
                outcome.winner
            } else {
                RemapWinner::Identity
            },
            certified: outcome.certified,
            search_nanos: 0,
            degraded: false,
        },
        rv: improved.then_some(outcome.rv),
    }
}

/// Entries a [`RemapCache`] holds before it evicts the least recently
/// used. A paper-matrix pass (10 benchmarks × 6 approaches) makes 88
/// distinct searches; an entry is its key's edge list (at most `RegN²`
/// edges of 16 bytes) plus a `RegN`-byte vector, so a full cache at the
/// evaluation's `RegN = 12` holds under 3 MB.
pub const REMAP_CACHE_CAPACITY: usize = 1024;

/// The whole input of one search: the preg adjacency graph's edges (with
/// their weights' bits) and every [`RemapConfig`] field the result
/// depends on. `threads` is left out: the result is identical at any
/// thread count.
#[derive(Debug, PartialEq, Eq, Hash)]
struct SearchKey {
    /// `(from, to, weight bits)` in the graph's edge order.
    edges: Vec<(u32, u32, u64)>,
    params: DiffParams,
    class: RegClass,
    exhaustive_limit: u16,
    starts: u32,
    pinned: Vec<PReg>,
    seed: u64,
    eval_budget: u64,
}

impl SearchKey {
    fn new(g: &AdjacencyGraph, cfg: &RemapConfig) -> SearchKey {
        SearchKey {
            edges: g
                .iter_edges()
                .map(|(a, b, w)| (a, b, w.to_bits()))
                .collect(),
            params: cfg.params,
            class: cfg.class,
            exhaustive_limit: cfg.exhaustive_limit,
            starts: cfg.starts,
            pinned: cfg.pinned.clone(),
            seed: cfg.seed,
            eval_budget: cfg.eval_budget,
        }
    }
}

/// A search slot: empty until the one search of its key completes.
type Slot = Arc<OnceLock<Found>>;

/// Results of the searches [`remap_function`] ran, keyed by their whole
/// input and shared by any number of threads.
///
/// * **Full keys.** A lookup compares the complete [`SearchKey`] (every
///   edge and weight bit, `RegN`/`DiffN`, class, `exhaustive_limit`,
///   `starts`, `pinned`, `seed`, `eval_budget`), never a fingerprint, so
///   a hit is exactly a repeat.
/// * **Replayed work is charged in full.** A hit returns the stored
///   [`RemapStats`] — `evaluations` and `starts_run` included — so every
///   `remap.*` counter reads as if the search had run again.
/// * **Compute once.** A key's slot is claimed before its search runs; a
///   concurrent lookup of the same key waits for that search instead of
///   racing a duplicate. Hits therefore equal lookups minus distinct keys
///   at any thread count. A search that unwinds leaves its slot empty,
///   and the next lookup of the key runs it.
/// * **Bounded.** At most [`REMAP_CACHE_CAPACITY`] keys, least recently
///   used evicted first.
///
/// The cache has no global instance: whoever owns one decides its scope.
/// A compile session owns one for its lifetime.
#[derive(Debug)]
pub struct RemapCache {
    slots: Mutex<LruCache<Arc<SearchKey>, Slot>>,
    lookups: AtomicU64,
    hits: AtomicU64,
}

impl Default for RemapCache {
    fn default() -> Self {
        RemapCache::new()
    }
}

impl RemapCache {
    /// An empty cache of [`REMAP_CACHE_CAPACITY`] entries.
    pub fn new() -> RemapCache {
        RemapCache {
            slots: Mutex::new(LruCache::new(REMAP_CACHE_CAPACITY)),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Searches looked up (one per [`remap_function`] call given this
    /// cache).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(AtomicOrdering::Relaxed)
    }

    /// Lookups answered by a search another lookup ran.
    pub fn hits(&self) -> u64 {
        self.hits.load(AtomicOrdering::Relaxed)
    }

    /// Keys evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions()
    }

    /// Lock the key map, recovering from poison: no search runs under the
    /// lock, and every map operation leaves it consistent.
    fn lock(&self) -> MutexGuard<'_, LruCache<Arc<SearchKey>, Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The result stored for `key`, running `search` into a freshly
    /// claimed slot when there is none.
    fn get_or_search(&self, key: SearchKey, search: impl FnOnce() -> Found) -> Found {
        self.lookups.fetch_add(1, AtomicOrdering::Relaxed);
        let key = Arc::new(key);
        let slot = {
            let mut slots = self.lock();
            match slots.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    slots.insert(key, Arc::clone(&slot));
                    slot
                }
            }
        };
        let mut ran = false;
        let found = slot
            .get_or_init(|| {
                ran = true;
                search()
            })
            .clone();
        if !ran {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
        }
        found
    }
}

/// The identity register vector over `0..reg_n` (`reg_n <= 256`, which
/// `DiffParams::new` enforces).
fn identity(reg_n: usize) -> Vec<u8> {
    (0..reg_n).map(|r| r as u8).collect()
}

fn apply_permutation(f: &mut Function, rv: &[u8], class: RegClass) {
    // Only physical operands are remapped, and `Function::class_of` — the
    // central bare-PReg-is-integer convention — places every physical
    // register in one class. When that class is not the one being
    // remapped, the rewrite must be a complete no-op (e.g. a float-class
    // remap of integer code).
    if f.class_of(Reg::Phys(PReg(0))) != class {
        return;
    }
    f.map_all_regs(|r| match r {
        Reg::Phys(p) => Reg::Phys(PReg(rv[p.index()])),
        other => other,
    });
}

/// The non-pinned register slots, in increasing order.
fn free_slots(reg_n: usize, pinned_regs: &[PReg]) -> Vec<usize> {
    let mut pinned = vec![false; reg_n];
    for p in pinned_regs {
        pinned[p.index()] = true;
    }
    (0..reg_n).filter(|&i| !pinned[i]).collect()
}

/// All permutations of the free slots via **iterative Heap's algorithm**,
/// scoring each permutation incrementally: Heap's algorithm derives every
/// successive permutation from its predecessor by one transposition, so
/// each visit costs one [`AdjacencyIndex::swap_delta`] instead of a full
/// cost evaluation. Exits early as soon as a zero-cost vector is found —
/// no permutation can beat zero.
fn exhaustive_search(idx: &AdjacencyIndex, cfg: &RemapConfig) -> SearchOutcome {
    let reg_n = cfg.params.reg_n() as usize;
    let params = cfg.params;
    let free = free_slots(reg_n, &cfg.pinned);
    let mut counters = SearchCounters::default();

    let mut rv = identity(reg_n);
    let mut cost = idx.perm_cost(&rv, params);
    let mut best = rv.clone();
    let mut best_cost = cost;

    let n = free.len();
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n && best_cost > 0.0 && counters.evaluations < cfg.eval_budget {
        if c[i] < i {
            let p = if i % 2 == 0 { 0 } else { c[i] };
            let (sa, sb) = (free[p], free[i]);
            let delta = idx.swap_delta(&rv, sa as u32, sb as u32, params);
            rv.swap(sa, sb);
            cost += delta;
            counters.evaluations += 1;
            if cost < best_cost - EPS {
                // The incremental cost carries rounding drift; settle the
                // new champion's cost exactly before recording it.
                let exact = idx.perm_cost(&rv, params);
                if exact < best_cost {
                    best_cost = exact;
                    best.copy_from_slice(&rv);
                }
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    // Certified if the enumeration finished (`i == n`) or a zero-cost
    // vector (unbeatable) was found; only a budget cutoff leaves the
    // optimum unconfirmed.
    let certified = best_cost == 0.0 || i >= n;
    SearchOutcome {
        rv: best,
        cost: best_cost,
        winner: RemapWinner::Exhaustive,
        certified,
        counters,
    }
}

/// Derive the RNG seed of restart `start`: a pure function of
/// `(seed, start)` (a SplitMix64 finalizer over the combined words), so
/// any worker thread can regenerate any start's stream independently of
/// how the starts are partitioned.
fn start_seed(seed: u64, start: u32) -> u64 {
    mix64(seed ^ (u64::from(start) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The initial register vector of restart `start`: the identity for start
/// 0 (the paper's initial RV), a seeded shuffle of the free values
/// otherwise.
fn start_vector(reg_n: usize, free: &[usize], seed: u64, start: u32) -> Vec<u8> {
    let mut rv = identity(reg_n);
    if start > 0 {
        let mut rng = SmallRng::seed_from_u64(start_seed(seed, start));
        let mut vals: Vec<u8> = free.iter().map(|&i| i as u8).collect();
        vals.shuffle(&mut rng);
        for (&slot, &v) in free.iter().zip(vals.iter()) {
            rv[slot] = v;
        }
    }
    rv
}

/// The per-start slice of the search-wide evaluation budget: an even
/// split with the remainder spread over the lowest start indices — a pure
/// function of `(total, starts, i)`, independent of scheduling.
fn slice_budget(total: u64, starts: u64, i: u64) -> u64 {
    total / starts + u64::from(i < total % starts)
}

/// Result of one greedy descent ([`descend`], [`reference::descend`]).
#[derive(Debug)]
pub struct Descent {
    /// The register vector the descent stopped at.
    pub rv: Vec<u8>,
    /// Its exact cost ([`AdjacencyIndex::perm_cost`]).
    pub cost: f64,
    /// Candidate swaps visited, one budget unit each.
    pub evals: u64,
}

/// Reusable buffers of [`descend`]: the swap-delta table over the free
/// slots and the per-node stale marks. A restart loop keeps one and hands
/// it to every descent it runs, so descents allocate nothing; no contents
/// carry over (each descent starts all-stale). What does carry over
/// between the descents of one search lives in its [`SweepMemo`], never
/// here: a scratch may serve searches over different graphs.
#[derive(Debug, Default)]
pub struct DescentScratch {
    /// `deltas[a * |free| + b]` (`a < b`): the last `swap_delta` of free
    /// slots `a` and `b`.
    deltas: Vec<f64>,
    /// `stale[node]`: `rv` changed at `node` or a neighbour since the
    /// pairs with endpoint `node` were last scored.
    stale: Vec<bool>,
}

/// Outcome of a recorded sweep that found no improving swap.
const LOCAL_MINIMUM: u16 = u16::MAX;

/// The sweeps one search has completed, keyed by the register vector each
/// started from: restarts of the same search merge before their local
/// minimum, and a complete sweep's outcome is a pure function of that
/// vector, so [`descend`] replays a recorded outcome instead of rescoring
/// the sweep.
///
/// A memo is bound to one `(index, free slots, params)` by construction
/// and lives exactly as long as the search that owns it (one worker's
/// range of restarts), so no entry can answer for another graph.
/// Entries are compact: the keys sit in one flat byte arena (`RegN` bytes
/// each), the outcome is 2 bytes (the swapped slot pair or "local
/// minimum"), and a linear-probing table of 4-byte entry indices, at most
/// half full, is addressed by a 64-bit fingerprint of the key.
/// Lookups compare the key itself, so equal fingerprints never confuse
/// two vectors. Only complete sweeps that started after a descent's first
/// are recorded, so each entry was paid for by a full sweep of
/// evaluations and the memo holds at most `eval_budget / sweep_len`
/// entries.
#[derive(Debug)]
pub struct SweepMemo<'a> {
    idx: &'a AdjacencyIndex,
    free: &'a [usize],
    params: DiffParams,
    /// Entry index + 1 of the key hashed to each slot (0: empty); the
    /// length is zero or a power of two.
    slots: Vec<u32>,
    /// Entry `i`'s register vector: `keys[i * RegN..(i + 1) * RegN]`.
    keys: Vec<u8>,
    /// Entry `i`'s outcome: `(a << 8) | b` for the swap of slots `a < b`,
    /// or [`LOCAL_MINIMUM`].
    outcomes: Vec<u16>,
}

impl<'a> SweepMemo<'a> {
    /// An empty memo for descents over `idx` with the given free slots and
    /// parameters.
    pub fn new(idx: &'a AdjacencyIndex, free: &'a [usize], params: DiffParams) -> Self {
        SweepMemo {
            idx,
            free,
            params,
            slots: Vec::new(),
            keys: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// The slot holding `rv`'s entry (`Ok`), or the empty slot where it
    /// would go (`Err`). The table must not be empty.
    fn probe(&self, fp: u64, rv: &[u8]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = fp as usize & mask;
        loop {
            let Some(i) = (self.slots[s] as usize).checked_sub(1) else {
                return Err(s);
            };
            if self.keys[i * rv.len()..(i + 1) * rv.len()] == *rv {
                return Ok(s);
            }
            s = (s + 1) & mask;
        }
    }

    /// The recorded outcome of a complete sweep from `rv`.
    fn lookup(&self, fp: u64, rv: &[u8]) -> Option<u16> {
        if self.slots.is_empty() {
            return None;
        }
        let s = self.probe(fp, rv).ok()?;
        Some(self.outcomes[self.slots[s] as usize - 1])
    }

    /// Record a complete sweep from `rv`, which must not be recorded yet.
    /// A memo whose entry indices no longer fit a slot stops recording.
    fn record(&mut self, fp: u64, rv: &[u8], outcome: u16) {
        let Ok(entry) = u32::try_from(self.outcomes.len() + 1) else {
            return;
        };
        if 2 * (self.outcomes.len() + 1) > self.slots.len() {
            // Double the table (from 64 slots) and reinsert every key.
            let len = (2 * self.slots.len()).max(64);
            self.slots = vec![0; len];
            for (i, key) in self.keys.chunks(rv.len()).enumerate() {
                let s = self
                    .probe(fingerprint(key), key)
                    .expect_err("keys are distinct");
                self.slots[s] = i as u32 + 1;
            }
        }
        let s = self
            .probe(fp, rv)
            .expect_err("a missed vector is not recorded");
        self.slots[s] = entry;
        self.keys.extend_from_slice(rv);
        self.outcomes.push(outcome);
    }
}

/// 64-bit fingerprint of a register vector, eight bytes per mixing round.
fn fingerprint(rv: &[u8]) -> u64 {
    rv.chunks(8).fold(rv.len() as u64, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        mix64(h ^ u64::from_le_bytes(word))
    })
}

/// One greedy descent (the inner loop of the paper's Figure 7): repeatedly
/// apply the single pairwise swap with the biggest cost reduction until a
/// local minimum. The full cost is computed once before the loop and once
/// after it (to shed incremental rounding drift).
///
/// Candidates are scored through a **delta table**: `scratch` keeps every
/// free pair's [`AdjacencyIndex::swap_delta`] from the previous sweep, and
/// after each applied swap only the two swapped nodes and their neighbours
/// ([`AdjacencyIndex::mark_neighborhood`]) are marked stale. A sweep
/// rescores the pairs with a stale endpoint and reads the rest from the
/// table; the first sweep finds every node stale. The kernel reads `rv`
/// only at a pair and its neighbours, so an untouched pair's cached delta
/// has the bits a fresh call would return, and the descent visits,
/// compares and applies exactly what the full-rescoring
/// [`reference::descend`] does.
///
/// Whole sweeps are served by the search's [`SweepMemo`]: before each
/// sweep the current `rv` is looked up, and on a hit the recorded swap is
/// applied with its delta recomputed by one `swap_delta` call (the bits
/// the sweep found), every node is marked stale, and the other pairs are
/// never scored. A complete sweep that missed is recorded, unless it was
/// the descent's first.
///
/// `budget` caps the candidates this descent visits (the start's slice of
/// [`RemapConfig::eval_budget`]), checked per candidate so the slice is
/// never overrun: a surface that keeps producing improving swaps stops at
/// its current (still valid) permutation instead of looping unboundedly.
/// A candidate read from the table costs one unit and one `evals` count,
/// like a fresh scoring, and a replayed sweep charges all
/// `|free|·(|free|−1)/2` of its candidates. A sweep is replayed or
/// recorded only when it fits the remaining budget whole, so counters and
/// cutoffs do not depend on how many pairs the table or the memo served.
pub fn descend(
    memo: &mut SweepMemo<'_>,
    budget: u64,
    mut rv: Vec<u8>,
    scratch: &mut DescentScratch,
) -> Descent {
    let (idx, free, params) = (memo.idx, memo.free, memo.params);
    let n = free.len();
    let sweep_len = (n * n.saturating_sub(1) / 2) as u64;
    let DescentScratch { deltas, stale } = scratch;
    if deltas.len() < n * n {
        deltas.resize(n * n, 0.0);
    }
    stale.clear();
    stale.resize(rv.len(), true);
    let mut cost = idx.perm_cost(&rv, params);
    let mut evals = 0u64;
    while cost > EPS && evals < budget {
        // Only a sweep that fits the slice whole completes, so only such a
        // sweep may be replayed or recorded.
        let fp = (budget - evals >= sweep_len).then(|| fingerprint(&rv));
        if let Some(outcome) = fp.and_then(|fp| memo.lookup(fp, &rv)) {
            evals += sweep_len;
            if outcome == LOCAL_MINIMUM {
                break;
            }
            let (a, b) = (usize::from(outcome >> 8), usize::from(outcome & 0xff));
            cost += idx.swap_delta(&rv, a as u32, b as u32, params);
            rv.swap(a, b);
            stale.fill(true);
            continue;
        }
        let mut best_swap: Option<(usize, usize, f64)> = None;
        'sweep: for a in 0..n {
            let sa = free[a];
            let a_stale = stale[sa];
            let row = &mut deltas[a * n..(a + 1) * n];
            for b in a + 1..n {
                if evals >= budget {
                    break 'sweep;
                }
                let sb = free[b];
                if a_stale || stale[sb] {
                    row[b] = idx.swap_delta(&rv, sa as u32, sb as u32, params);
                }
                let d = row[b];
                evals += 1;
                if d < -EPS && best_swap.is_none_or(|(_, _, bd)| d < bd) {
                    best_swap = Some((sa, sb, d));
                }
            }
        }
        // The descent's first sweep, which ends at `evals == sweep_len`,
        // started from its start vector: not worth an entry.
        if let Some(fp) = fp.filter(|_| evals > sweep_len) {
            let outcome = best_swap.map_or(LOCAL_MINIMUM, |(a, b, _)| (a as u16) << 8 | b as u16);
            memo.record(fp, &rv, outcome);
        }
        match best_swap {
            Some((a, b, d)) => {
                rv.swap(a, b);
                cost += d;
                stale.fill(false);
                idx.mark_neighborhood(a as u32, stale);
                idx.mark_neighborhood(b as u32, stale);
            }
            None => break, // local minimum (or slice exhausted mid-sweep)
        }
    }
    let cost = idx.perm_cost(&rv, params);
    Descent { rv, cost, evals }
}

/// The full-rescoring greedy descent [`descend`] replaced, kept as its
/// testing oracle (like `dra_adjgraph::graph::reference`): every sweep
/// calls [`AdjacencyIndex::swap_delta`] for every free pair. The property
/// tests in `crates/regalloc/tests/proptest_remap.rs` require the same
/// `(rv, cost bits, evals)` from both. Nothing outside tests calls it.
pub mod reference {
    use super::{Descent, EPS};
    use dra_adjgraph::{AdjacencyIndex, DiffParams};

    /// [`super::descend`] without the delta table.
    pub fn descend(
        idx: &AdjacencyIndex,
        free: &[usize],
        params: DiffParams,
        budget: u64,
        mut rv: Vec<u8>,
    ) -> Descent {
        let mut cost = idx.perm_cost(&rv, params);
        let mut evals = 0u64;
        while cost > EPS && evals < budget {
            let mut best_swap: Option<(usize, usize, f64)> = None;
            'sweep: for a in 0..free.len() {
                for b in a + 1..free.len() {
                    if evals >= budget {
                        break 'sweep;
                    }
                    let d = idx.swap_delta(&rv, free[a] as u32, free[b] as u32, params);
                    evals += 1;
                    if d < -EPS && best_swap.is_none_or(|(_, _, bd)| d < bd) {
                        best_swap = Some((free[a], free[b], d));
                    }
                }
            }
            match best_swap {
                Some((a, b, d)) => {
                    rv.swap(a, b);
                    cost += d;
                }
                None => break, // local minimum (or slice exhausted mid-sweep)
            }
        }
        let cost = idx.perm_cost(&rv, params);
        Descent { rv, cost, evals }
    }
}

/// A candidate result from one restart, tagged for the deterministic
/// tie-break: lowest cost, then lowest start index.
struct Candidate {
    cost: f64,
    start: u32,
    rv: Vec<u8>,
}

impl Candidate {
    fn beats(&self, other: &Candidate) -> bool {
        let by_cost = self.cost.partial_cmp(&other.cost).expect("NaN cost");
        by_cost.then(self.start.cmp(&other.start)) == Ordering::Less
    }
}

/// The paper's greedy multistart: `cfg.starts` descents, descent `i`
/// starting from start vector `i` under its deterministic slice of the
/// shared evaluation budget, on up to `cfg.threads` scoped worker threads.
///
/// Each worker owns a contiguous range of start indices and reports its
/// best candidate plus its work counters; the merge takes the lowest cost,
/// breaking ties by lowest start index. Because every start vector and
/// budget slice depends only on `(cfg.seed, start)`, the winning
/// `(rv, cost)` **and the counters** are bit-identical for any thread
/// count — no descent exits early based on another descent's result.
fn multistart(idx: &AdjacencyIndex, cfg: &RemapConfig) -> SearchOutcome {
    let reg_n = cfg.params.reg_n() as usize;
    let params = cfg.params;
    let free = free_slots(reg_n, &cfg.pinned);

    let starts = cfg.starts.max(1);
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.threads
    }
    .min(starts as usize)
    .max(1);

    let run_range = |lo: u32, hi: u32| -> (Option<Candidate>, SearchCounters) {
        let mut counters = SearchCounters::default();
        let mut best: Option<Candidate> = None;
        let mut scratch = DescentScratch::default();
        let mut memo = SweepMemo::new(idx, &free, params);
        for start in lo..hi {
            let slice = slice_budget(cfg.eval_budget, u64::from(starts), u64::from(start));
            if slice == 0 {
                continue; // budget smaller than the restart count
            }
            let rv0 = start_vector(reg_n, &free, cfg.seed, start);
            let out = descend(&mut memo, slice, rv0, &mut scratch);
            counters.evaluations += out.evals;
            counters.starts_run += 1;
            let cand = Candidate {
                cost: out.cost,
                start,
                rv: out.rv,
            };
            if best.as_ref().is_none_or(|b| cand.beats(b)) {
                best = Some(cand);
            }
        }
        (best, counters)
    };

    let chunk = starts.div_ceil(threads as u32);
    let per_thread: Vec<(Option<Candidate>, SearchCounters)> = if threads == 1 {
        vec![run_range(0, starts)]
    } else {
        std::thread::scope(|s| {
            let run_range = &run_range;
            let handles: Vec<_> = (0..threads as u32)
                .map(|t| {
                    let lo = (t * chunk).min(starts);
                    let hi = (lo + chunk).min(starts);
                    s.spawn(move || run_range(lo, hi))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("remap worker panicked"))
                .collect()
        })
    };

    let mut counters = SearchCounters::default();
    let mut winner: Option<Candidate> = None;
    for (cand, c) in per_thread {
        counters.absorb(c);
        if let Some(cand) = cand {
            if winner.as_ref().is_none_or(|w| cand.beats(w)) {
                winner = Some(cand);
            }
        }
    }

    // Identity baseline: the search result can never be worse than the
    // allocator's own numbering, and equal costs keep the identity.
    let identity = identity(reg_n);
    let identity_cost = idx.perm_cost(&identity, params);
    let (rv, cost, win) = match winner {
        Some(c) if c.cost < identity_cost => (c.rv, c.cost, RemapWinner::Greedy),
        _ => (identity, identity_cost, RemapWinner::Identity),
    };
    SearchOutcome {
        certified: cost == 0.0, // zero is unbeatable; anything else is not certified
        rv,
        cost,
        winner: win,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_ir::{FunctionBuilder, Inst};

    /// A function whose accesses walk the cycle `r0 -> r2 -> r1 -> r3 ->
    /// r0`. Under `RegN = 4, DiffN = 2` the identity numbering violates
    /// three of the four hops, but relabeling the cycle to consecutive
    /// numbers (`rv = [0, 2, 1, 3]`) satisfies all of them.
    fn hoppy() -> Function {
        let mut b = FunctionBuilder::new("hoppy");
        for (src, dst) in [(0u8, 2u8), (2, 1), (1, 3), (3, 0)] {
            b.push(Inst::Mov {
                dst: PReg(dst).into(),
                src: PReg(src).into(),
            });
        }
        b.ret(None);
        b.finish()
    }

    /// A denser instance on 6 registers with no zero-cost solution at
    /// `RegN = 6, DiffN = 2`, so certification cannot come from the
    /// zero-cost shortcut.
    fn tangled() -> Function {
        let mut b = FunctionBuilder::new("tangled");
        for (src, dst) in [
            (0u8, 3u8),
            (3, 1),
            (1, 4),
            (4, 2),
            (2, 5),
            (5, 0),
            (0, 4),
            (4, 1),
            (1, 5),
            (5, 2),
            (2, 3),
            (3, 0),
        ] {
            b.push(Inst::Mov {
                dst: PReg(dst).into(),
                src: PReg(src).into(),
            });
        }
        b.ret(None);
        b.finish()
    }

    #[test]
    fn exhaustive_finds_zero_cost() {
        let mut f = hoppy();
        let cfg = RemapConfig::new(DiffParams::new(4, 2));
        let stats = remap_function(&mut f, &cfg, None);
        assert!(stats.exhaustive);
        assert!(stats.cost_before > 0.0);
        assert_eq!(stats.cost_after, 0.0, "a zero-cost permutation exists");
        assert_eq!(stats.winner, RemapWinner::Exhaustive);
        assert!(stats.certified, "zero cost is unbeatable");
        // And the rewritten code reflects it: the move now spans an
        // in-range pair.
        let p = DiffParams::new(4, 2);
        for i in f.iter_insts() {
            if let Inst::Mov { dst, src } = i {
                assert!(p.in_range(src.expect_phys().number(), dst.expect_phys().number()));
            }
        }
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_case() {
        let mut f1 = hoppy();
        let mut cfg = RemapConfig::new(DiffParams::new(4, 2));
        let ex = remap_function(&mut f1, &cfg, None);

        let mut f2 = hoppy();
        cfg.exhaustive_limit = 0; // force greedy
        cfg.starts = 32;
        let gr = remap_function(&mut f2, &cfg, None);
        assert!(!gr.exhaustive);
        assert_eq!(gr.cost_after, ex.cost_after);
    }

    #[test]
    fn identity_kept_when_already_optimal() {
        // Accesses r0 -> r1 only: identity is optimal.
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::Mov {
            dst: PReg(1).into(),
            src: PReg(0).into(),
        });
        b.ret(None);
        let mut f = b.finish();
        let before = f.clone();
        let stats = remap_function(&mut f, &RemapConfig::new(DiffParams::new(4, 2)), None);
        assert_eq!(stats.cost_after, 0.0);
        assert_eq!(stats.winner, RemapWinner::Identity);
        assert!(stats.certified);
        assert_eq!(f, before, "no gratuitous rewrite");
    }

    #[test]
    fn pinned_registers_keep_their_numbers() {
        let mut f = hoppy();
        let mut cfg = RemapConfig::new(DiffParams::new(4, 2));
        cfg.pinned = vec![PReg(0), PReg(3)];
        let stats = remap_function(&mut f, &cfg, None);
        assert!(stats.cost_after <= stats.cost_before);
        // The first mov reads r0 and the last writes r0: those operands
        // must still be r0 (and likewise r3) after any remapping.
        let movs: Vec<_> = f
            .iter_insts()
            .filter_map(|i| match i {
                Inst::Mov { dst, src } => Some((src.expect_phys(), dst.expect_phys())),
                _ => None,
            })
            .collect();
        assert_eq!(movs[0].0, PReg(0), "pinned r0 moved");
        assert_eq!(movs[3].1, PReg(0), "pinned r0 moved");
        assert_eq!(movs[2].1, PReg(3), "pinned r3 moved");
        assert_eq!(movs[3].0, PReg(3), "pinned r3 moved");
    }

    #[test]
    fn remapping_preserves_distinctness() {
        // Permutations are bijections: two distinct registers must remain
        // distinct after remapping.
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::Bin {
            op: dra_ir::BinOp::Add,
            dst: PReg(2).into(),
            lhs: PReg(0).into(),
            rhs: PReg(1).into(),
        });
        b.ret(None);
        let mut f = b.finish();
        remap_function(&mut f, &RemapConfig::new(DiffParams::new(4, 2)), None);
        let regs: Vec<u8> = f.blocks[0].insts[0]
            .accesses()
            .iter()
            .map(|r| r.expect_phys().number())
            .collect();
        assert_eq!(regs.len(), 3);
        assert_ne!(regs[0], regs[1]);
        assert_ne!(regs[0], regs[2]);
        assert_ne!(regs[1], regs[2]);
    }

    #[test]
    fn remap_handles_a_full_256_register_file() {
        // `(0..256 as u8)` is empty, so the identity vector must be built
        // from a wider range.
        let hops = [(0u8, 5u8), (5, 200), (200, 255), (255, 0), (0, 200)];
        let mut b = FunctionBuilder::new("wide");
        for (src, dst) in hops {
            b.push(Inst::Mov {
                dst: PReg(dst).into(),
                src: PReg(src).into(),
            });
        }
        b.ret(None);
        let mut f = b.finish();
        let mut cfg = RemapConfig::new(DiffParams::new(256, 8)).with_threads(1);
        cfg.starts = 8;
        let stats = remap_function(&mut f, &cfg, None);
        assert!(stats.cost_before > 0.0);
        assert!(stats.cost_after <= stats.cost_before);
        // A permutation: the four registers stay four distinct registers.
        let mut regs: Vec<u8> = f.blocks[0]
            .insts
            .iter()
            .flat_map(|i| i.accesses())
            .map(|r| r.expect_phys().number())
            .collect();
        regs.sort_unstable();
        regs.dedup();
        assert_eq!(regs.len(), 4, "{regs:?}");
    }

    #[test]
    fn greedy_is_deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let mut f = hoppy();
            let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
            cfg.exhaustive_limit = 0;
            cfg.seed = seed;
            remap_function(&mut f, &cfg, None);
            format!("{f}")
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn float_class_remap_is_complete_noop() {
        // Regression: `apply_permutation` used to gate on the *configured*
        // class in a way that never dispatched on the register's own
        // class. A float-class remap of integer code must leave every
        // operand untouched — physical registers belong to the integer
        // class (`Function::class_of`).
        let mut f = hoppy();
        let before = f.clone();
        let mut cfg = RemapConfig::new(DiffParams::new(4, 2));
        cfg.class = RegClass::Float;
        let stats = remap_function(&mut f, &cfg, None);
        assert_eq!(f, before, "float remap rewrote integer registers");
        assert_eq!(stats.cost_before, 0.0, "no float accesses, empty graph");
        assert_eq!(stats.cost_after, 0.0);
        assert_eq!(stats.evaluations, 0, "empty graph short-circuits");
    }

    #[test]
    fn apply_permutation_dispatches_on_register_class() {
        let mut f = hoppy();
        let before = f.clone();
        // Reversing permutation under the wrong class: no-op.
        apply_permutation(&mut f, &[3, 2, 1, 0], RegClass::Float);
        assert_eq!(f, before);
        // Same permutation under the register's own class: applied.
        apply_permutation(&mut f, &[3, 2, 1, 0], RegClass::Int);
        assert_ne!(f, before);
        let first = match f.blocks[0].insts[0] {
            Inst::Mov { src, .. } => src.expect_phys(),
            _ => unreachable!(),
        };
        assert_eq!(first, PReg(3), "r0 renumbered to rv[0] = 3");
    }

    #[test]
    fn parallel_multistart_matches_sequential() {
        // The determinism contract: identical (permutation, cost) *and
        // counters* at any thread count, including sequential.
        let run = |threads: usize| {
            let mut f = hoppy();
            let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
            cfg.exhaustive_limit = 0;
            cfg.starts = 64;
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
        assert_eq!(run(2), sequential, "2 threads diverged");
        assert_eq!(run(8), sequential, "8 threads diverged");
    }

    /// A sparse instance at `RegN = 64`: 48 moves over a scrambled walk of
    /// the register file, about three edges per register, the shape of a
    /// register-hungry pipelined kernel. One applied swap leaves most of
    /// the 2016 candidate deltas unchanged, so descents here read most
    /// candidates from the delta table.
    fn sparse64() -> Function {
        let mut b = FunctionBuilder::new("sparse64");
        for i in 0..48u32 {
            b.push(Inst::Mov {
                dst: PReg(((i * 23 + 7) % 64) as u8).into(),
                src: PReg(((i * 37 + 5) % 64) as u8).into(),
            });
        }
        b.ret(None);
        b.finish()
    }

    #[test]
    fn sparse_parallel_multistart_matches_sequential() {
        // `parallel_multistart_matches_sequential` on a sparse RegN 64
        // graph, where the delta table serves most candidates.
        let run = |threads: usize| {
            let mut f = sparse64();
            let mut cfg = RemapConfig::new(DiffParams::new(64, 32));
            cfg.starts = 32;
            cfg.threads = threads;
            let stats = remap_function(&mut f, &cfg, None);
            assert!(stats.cost_after < stats.cost_before, "found nothing");
            (
                format!("{f}"),
                stats.cost_after.to_bits(),
                stats.evaluations,
                stats.starts_run,
            )
        };
        let sequential = run(1);
        assert_eq!(run(2), sequential, "2 threads diverged");
        assert_eq!(run(8), sequential, "8 threads diverged");
    }

    #[test]
    fn repeated_start_replays_recorded_sweeps() {
        let f = sparse64();
        let params = DiffParams::new(64, 32);
        let g = build_preg_adjacency(&f, RegClass::Int, 64);
        let idx = g.index();
        let free: Vec<usize> = (0..64).collect();
        let sweep_len = 64 * 63 / 2;
        let rv0 = start_vector(64, &free, 7, 1);
        let mut scratch = DescentScratch::default();
        let mut memo = SweepMemo::new(&idx, &free, params);
        let first = descend(&mut memo, u64::MAX, rv0.clone(), &mut scratch);
        let sweeps = first.evals / sweep_len;
        assert!(sweeps > 2, "too short a descent to replay: {sweeps} sweeps");
        // Every complete sweep but the first is recorded.
        assert_eq!(memo.outcomes.len() as u64, sweeps - 1);
        // The same start again retraces the first descent from the memo
        // without recording anything new.
        let again = descend(&mut memo, u64::MAX, rv0.clone(), &mut scratch);
        assert_eq!(again.rv, first.rv);
        assert_eq!(again.cost.to_bits(), first.cost.to_bits());
        assert_eq!(again.evals, first.evals);
        assert_eq!(memo.outcomes.len() as u64, sweeps - 1);
        // Proof the replay path ran: once every recorded outcome claims a
        // local minimum, a repeat stops at the first recorded vector, after
        // one scored sweep and one replayed sweep.
        memo.outcomes.fill(LOCAL_MINIMUM);
        let forged = descend(&mut memo, u64::MAX, rv0, &mut scratch);
        assert_eq!(forged.evals, 2 * sweep_len);
        idx.recycle();
    }

    #[test]
    fn greedy_counters_account_for_work() {
        let mut f = hoppy();
        let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
        cfg.exhaustive_limit = 0;
        cfg.starts = 16;
        cfg.threads = 1;
        let stats = remap_function(&mut f, &cfg, None);
        assert!(!stats.exhaustive);
        // Counters are schedule-invariant now: every task with a nonzero
        // budget slice runs, so all 16 starts execute (zero-cost start
        // vectors included — they just spend no evaluations).
        assert_eq!(stats.starts_run, 16);
        // The identity start (cost > 0) sweeps all 66 free pairs at least
        // once before reaching a local minimum.
        assert!(stats.evaluations >= 66);
    }

    #[test]
    fn exhaustive_early_exits_on_zero_cost() {
        let mut f = hoppy();
        let stats = remap_function(&mut f, &RemapConfig::new(DiffParams::new(4, 2)), None);
        assert!(stats.exhaustive);
        assert_eq!(stats.cost_after, 0.0);
        // Heap's over 4 free slots visits at most 4! - 1 = 23 transpositions;
        // the zero-cost early exit must stop at (or before) the one that
        // reaches a perfect vector.
        assert!(stats.evaluations <= 23);
    }

    #[test]
    fn eval_budget_bounds_the_search_deterministically() {
        let run = |budget: u64, threads: usize| {
            let mut f = hoppy();
            let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
            cfg.exhaustive_limit = 0;
            cfg.starts = 16;
            cfg.threads = threads;
            cfg.eval_budget = budget;
            let stats = remap_function(&mut f, &cfg, None);
            assert!(stats.cost_after <= stats.cost_before);
            assert!(
                stats.evaluations <= budget,
                "multistart overran its budget: {} > {budget}",
                stats.evaluations
            );
            (
                format!("{f}"),
                stats.cost_after.to_bits(),
                stats.evaluations,
                stats.starts_run,
            )
        };
        // A budget that cuts descents short still yields a valid
        // permutation, bit-identical at any thread count — including the
        // work counters (the budget split is deterministic, not first-
        // come-first-served).
        let tight = run(10, 1);
        assert_eq!(run(10, 2), tight, "2 threads diverged under budget");
        assert_eq!(run(10, 8), tight, "8 threads diverged under budget");
        // And the default budget reproduces the unbudgeted behavior on
        // real-sized inputs (it never binds).
        let roomy = run(DEFAULT_EVAL_BUDGET, 1);
        assert_eq!(run(DEFAULT_EVAL_BUDGET, 8), roomy);
    }

    #[test]
    fn budget_smaller_than_starts_skips_zero_slice_tasks() {
        let mut f = hoppy();
        let mut cfg = RemapConfig::new(DiffParams::new(12, 8));
        cfg.exhaustive_limit = 0;
        cfg.starts = 16;
        cfg.threads = 1;
        cfg.eval_budget = 10;
        let stats = remap_function(&mut f, &cfg, None);
        // 10 budget over 16 tasks: the first 10 tasks get a one-evaluation
        // slice, the rest get zero and are skipped. (A task whose start
        // vector is already zero-cost spends less than its slice, so the
        // evaluation total is bounded by — not equal to — the budget.)
        assert_eq!(stats.starts_run, 10);
        assert!(stats.evaluations <= 10);
        assert!(stats.evaluations > 0);
    }

    #[test]
    fn exhaustive_respects_eval_budget() {
        let mut f = hoppy();
        let mut cfg = RemapConfig::new(DiffParams::new(4, 2));
        cfg.eval_budget = 3;
        let stats = remap_function(&mut f, &cfg, None);
        assert!(stats.exhaustive);
        assert!(stats.evaluations <= 3, "budget ignored: {}", stats.evaluations);
        assert!(stats.cost_after <= stats.cost_before);
        assert!(
            !stats.certified || stats.cost_after == 0.0,
            "a budget-cut enumeration must not claim certification"
        );
    }

    #[test]
    fn exhaustive_certifies_a_nonzero_optimum() {
        let mut f = tangled();
        let ex = remap_function(&mut f, &RemapConfig::new(DiffParams::new(6, 2)), None);
        assert!(ex.exhaustive);
        assert!(ex.cost_after > 0.0, "tangled has no zero-cost numbering");
        assert!(ex.certified, "a completed enumeration certifies");
        // No greedy restart can beat a certified optimum.
        let mut f = tangled();
        let mut cfg = RemapConfig::new(DiffParams::new(6, 2));
        cfg.exhaustive_limit = 0;
        cfg.starts = 32;
        let gr = remap_function(&mut f, &cfg, None);
        assert!(!gr.certified);
        assert!(gr.cost_after >= ex.cost_after);
    }

    /// The fields of `st` a cache hit must reproduce: all but
    /// `search_nanos`, costs by their bits.
    fn replayable(st: &RemapStats) -> (u64, u64, bool, u64, u32, RemapWinner, bool, bool) {
        (
            st.cost_before.to_bits(),
            st.cost_after.to_bits(),
            st.exhaustive,
            st.evaluations,
            st.starts_run,
            st.winner,
            st.certified,
            st.degraded,
        )
    }

    #[test]
    fn cache_hit_replays_the_search_exactly() {
        let mut cfg = RemapConfig::new(DiffParams::new(64, 32)).with_threads(1);
        cfg.starts = 32;
        let mut fresh = sparse64();
        let want = remap_function(&mut fresh, &cfg, None);
        assert!(want.cost_after < want.cost_before, "nothing to replay");

        let cache = RemapCache::new();
        let mut first = sparse64();
        let ran = remap_function(&mut first, &cfg, Some(&cache));
        assert_eq!((cache.lookups(), cache.hits()), (1, 0));
        // `threads` is not part of the key: results agree at any count.
        cfg.threads = 2;
        let mut again = sparse64();
        let hit = remap_function(&mut again, &cfg, Some(&cache));
        assert_eq!((cache.lookups(), cache.hits()), (2, 1));
        assert_eq!(format!("{again}"), format!("{fresh}"));
        assert_eq!(format!("{first}"), format!("{fresh}"));
        assert_eq!(replayable(&hit), replayable(&want));
        assert_eq!(replayable(&ran), replayable(&want));
        assert_eq!(cache.evictions(), 0);

        // A search that keeps the identity replays as a non-rewrite.
        let mut b = FunctionBuilder::new("f");
        b.push(Inst::Mov {
            dst: PReg(1).into(),
            src: PReg(0).into(),
        });
        b.ret(None);
        let optimal = b.finish();
        let cfg = RemapConfig::new(DiffParams::new(4, 2));
        for _ in 0..2 {
            let mut f = optimal.clone();
            let st = remap_function(&mut f, &cfg, Some(&cache));
            assert_eq!(f, optimal);
            assert_eq!(st.winner, RemapWinner::Identity);
        }
        assert_eq!((cache.lookups(), cache.hits()), (4, 2));
    }

    /// Look `(g, cfg)` up in `cache`, searching on a miss; true on a hit.
    fn lookup_hits(cache: &RemapCache, g: &AdjacencyGraph, cfg: &RemapConfig) -> bool {
        let hits = cache.hits();
        cache.get_or_search(SearchKey::new(g, cfg), || search(g, cfg));
        cache.hits() > hits
    }

    #[test]
    fn cache_key_covers_the_whole_search_input() {
        let f = hoppy();
        let mut base = RemapConfig::new(DiffParams::new(12, 8)).with_threads(1);
        base.exhaustive_limit = 0;
        base.starts = 8;
        let g = build_preg_adjacency(&f, RegClass::Int, 12);
        let cache = RemapCache::new();
        assert!(!lookup_hits(&cache, &g, &base));
        assert!(lookup_hits(&cache, &g, &base), "a true repeat hits");

        type Vary = fn(&mut RemapConfig);
        let variants: [(&str, Vary); 7] = [
            ("pinned", |c| c.pinned = vec![PReg(0)]),
            ("starts", |c| c.starts += 1),
            ("seed", |c| c.seed += 1),
            ("DiffN", |c| c.params = DiffParams::new(12, 4)),
            ("class", |c| c.class = RegClass::Float),
            ("exhaustive_limit", |c| c.exhaustive_limit = 1),
            ("eval_budget", |c| c.eval_budget -= 1),
        ];
        for (what, vary) in variants {
            let mut cfg = base.clone();
            vary(&mut cfg);
            assert!(!lookup_hits(&cache, &g, &cfg), "{what} must miss");
        }
        // RegN: the same edges over a larger register file.
        let wide = RemapConfig {
            params: DiffParams::new(16, 8),
            ..base.clone()
        };
        let g16 = build_preg_adjacency(&f, RegClass::Int, 16);
        assert!(g16.iter_edges().eq(g.iter_edges()));
        assert!(!lookup_hits(&cache, &g16, &wide), "RegN must miss");
        // One edge weight one ulp up.
        let mut nudged = g.clone();
        let (a, b, w) = g.iter_edges().next().unwrap();
        nudged.add_edge(a, b, f64::from_bits(w.to_bits() + 1) - w);
        assert_eq!(nudged.weight(a, b).to_bits(), w.to_bits() + 1);
        assert!(
            !lookup_hits(&cache, &nudged, &base),
            "a weight's last bit must miss"
        );
        assert_eq!(cache.lookups(), 2 + variants.len() as u64 + 2);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn a_search_that_unwinds_leaves_its_key_computable() {
        let f = hoppy();
        let cfg = RemapConfig::new(DiffParams::new(4, 2));
        let g = build_preg_adjacency(&f, RegClass::Int, 4);
        let cache = RemapCache::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_search(SearchKey::new(&g, &cfg), || panic!("injected search fault"))
        }));
        assert!(unwound.is_err());
        // The next lookup runs the search (not a hit) and stores it.
        assert!(!lookup_hits(&cache, &g, &cfg));
        assert!(lookup_hits(&cache, &g, &cfg));
        assert_eq!((cache.lookups(), cache.hits()), (3, 1));
    }

    #[test]
    fn concurrent_lookups_of_one_key_run_one_search() {
        let f = sparse64();
        let mut cfg = RemapConfig::new(DiffParams::new(64, 32)).with_threads(1);
        cfg.starts = 16;
        let g = build_preg_adjacency(&f, RegClass::Int, 64);
        let cache = RemapCache::new();
        let searches = std::sync::atomic::AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        let results: Vec<Found> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.get_or_search(SearchKey::new(&g, &cfg), || {
                            searches.fetch_add(1, AtomicOrdering::Relaxed);
                            search(&g, &cfg)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(searches.into_inner(), 1);
        assert_eq!((cache.lookups(), cache.hits()), (4, 3));
        for r in &results {
            assert_eq!(r.rv, results[0].rv);
            assert_eq!(replayable(&r.stats), replayable(&results[0].stats));
        }
    }

    #[test]
    fn degraded_marker_is_inert() {
        let m = RemapStats::degraded_marker();
        assert!(m.degraded);
        assert_eq!(m.evaluations, 0);
        assert_eq!(m.starts_run, 0);
        assert_eq!(m.winner, RemapWinner::Identity);
        let real = remap_function(&mut hoppy(), &RemapConfig::new(DiffParams::new(4, 2)), None);
        assert!(!real.degraded, "normal remaps never carry the marker");
    }
}
