//! Deterministic parallel batch driver for the figure/table pipelines.
//!
//! Every evaluation binary runs the same shape of work: a matrix of
//! independent (benchmark, approach) or (loop, sweep-point) cells, each a
//! full compile→encode→verify→simulate pipeline. The cells share nothing
//! mutable, so they parallelize trivially — the only care required is
//! determinism, and this module follows the remapping search's rule
//! (`RemapConfig::threads`): **output is a pure function of the input,
//! never of the schedule**.
//!
//! * [`run_batch`] executes a closure over an item slice on
//!   [`std::thread::scope`] workers. Items are claimed from a shared
//!   atomic counter (work-stealing, so a slow cell does not idle the other
//!   workers) and every result is written back to its item's *index slot*;
//!   the returned `Vec` is in item order for any thread count, including
//!   the sequential `threads = 1` path, which runs in the caller's thread.
//! * [`SourceCache`] memoizes per-benchmark *source artifacts*: the parsed
//!   [`Program`] and each function's register pressure (MAXLIVE). Each
//!   benchmark is parsed and analyzed once per process no matter how many
//!   approaches or sweep points consume it; the `Adaptive` approach's
//!   per-function liveness pass is served from the cache.
//! * [`run_lowend_matrix_with_telemetry`] combines the two: the full
//!   benchmarks × approaches grid of Figures 11–14 in one call, with the
//!   thread count taken from [`LowEndSetup::batch_threads`].
//!
//! The per-cell pipelines are themselves deterministic (the remapping
//! search is bit-identical at any `remap_threads`), so a whole matrix is
//! reproducible bit-for-bit at any `batch_threads`.

use crate::cache::LruCache;
use crate::lowend::{Approach, LowEndRun, LowEndSetup, PipelineError};
use crate::session::CompileSession;
use crate::telemetry::{arm_cancel, take_panic_stage, CancelToken, CancelUnwind, Telemetry};
use dra_ir::Program;
use dra_workloads::benchmark;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Resolve a `0 = one per CPU` thread knob against the machine.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Run `f` over every item on `threads` scoped workers, returning results
/// in item order.
///
/// Workers claim indices from a shared atomic counter and tag each result
/// with its index; the merge scatters results back into index order, so
/// the output is identical for any `threads` (0 = one per CPU). `f` must
/// be deterministic per `(index, item)` for that to extend to the values
/// themselves.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn run_batch<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            debug_assert!(slots[i].is_none(), "index {i} claimed twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

/// One cell's result under panic isolation: either the closure's value or
/// a structured record of the panic that killed it.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome<R> {
    /// The cell completed normally.
    Ok(R),
    /// Every attempt at the cell panicked; the rest of the batch is
    /// unaffected.
    Failed {
        /// The innermost telemetry stage active when the final attempt
        /// panicked (`"cell"` when the panic escaped outside any stage).
        stage: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The cell's [`CancelToken`] expired before it finished: a stage
    /// boundary (or the pre-attempt check) observed cancellation and the
    /// attempt was abandoned. Never retried — an expired deadline does not
    /// un-expire.
    Cancelled {
        /// The stage boundary that observed cancellation (`"start"` when
        /// the token was already expired before the first attempt began).
        stage: String,
    },
}

impl<R> CellOutcome<R> {
    /// True for [`CellOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// The value, if the cell completed.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// The value by move, if the cell completed.
    pub fn into_ok(self) -> Option<R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// Aggregate fallout of one isolated batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IsolationStats {
    /// Cells whose every attempt panicked.
    pub failed: u64,
    /// Panicking attempts that were retried. Both counters depend only on
    /// which `(index, item)` cells panic — never on the schedule.
    pub retried: u64,
}

/// Render a panic payload for a [`CellOutcome::Failed`] record.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` under [`catch_unwind`] with up to `retries` deterministic
/// re-attempts, attributing a final panic to the innermost telemetry
/// stage it unwound through, and with an optional cooperative
/// [`CancelToken`].
///
/// This is the per-cell core of [`run_batch_isolated`], exposed on its
/// own so the resident serving workers ([`crate::serve`]) give every
/// request exactly the same containment semantics as a batch cell: a
/// panicking request yields a structured [`CellOutcome::Failed`] with
/// stage attribution instead of killing its worker thread. Returns the
/// outcome plus the number of retried attempts.
///
/// When a token is supplied it is armed on this thread for the duration of
/// every attempt, so each telemetry stage boundary inside `f` (and every
/// explicit [`crate::telemetry::check_cancelled`] site, e.g. the session
/// cache) doubles as a cancellation checkpoint. An expired token turns the
/// attempt into [`CellOutcome::Cancelled`] — distinguished from a real
/// panic by its [`CancelUnwind`] payload — and is never retried: retrying
/// work whose deadline has passed only deepens an overload. An
/// already-expired token short-circuits before `f` runs at all (stage
/// `"start"`).
pub fn run_isolated_cancellable<R>(
    retries: u32,
    cancel: Option<&CancelToken>,
    f: impl Fn() -> R,
) -> (CellOutcome<R>, u32) {
    let mut retried = 0u32;
    loop {
        // Clear any stage left over from earlier work on this thread so
        // the attribution below is this attempt's own.
        let _ = take_panic_stage();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return (
                CellOutcome::Cancelled {
                    stage: "start".to_string(),
                },
                retried,
            );
        }
        let _armed = cancel.map(arm_cancel);
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(r) => return (CellOutcome::Ok(r), retried),
            Err(payload) => {
                if let Some(c) = payload.downcast_ref::<CancelUnwind>() {
                    let _ = take_panic_stage();
                    return (
                        CellOutcome::Cancelled {
                            stage: c.stage.clone(),
                        },
                        retried,
                    );
                }
                let stage = take_panic_stage().unwrap_or_else(|| "cell".to_string());
                if retried < retries {
                    retried += 1;
                    continue;
                }
                return (
                    CellOutcome::Failed {
                        stage,
                        message: panic_message(payload.as_ref()),
                    },
                    retried,
                );
            }
        }
    }
}

/// [`run_batch`] with per-cell panic containment: each cell runs under
/// [`catch_unwind`] with up to `retries` deterministic re-attempts, so one
/// poisoned cell yields a [`CellOutcome::Failed`] hole instead of aborting
/// the whole matrix.
///
/// The failed/retried totals are schedule-invariant because `f` is
/// required to be deterministic per `(index, item)` (the same contract
/// [`run_batch`] already imposes): whether a cell panics — and therefore
/// how many times it is retried — cannot depend on which worker runs it.
pub fn run_batch_isolated<T, R, F>(
    items: &[T],
    threads: usize,
    retries: u32,
    f: F,
) -> (Vec<CellOutcome<R>>, IsolationStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let failed = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let outcomes = run_batch(items, threads, |i, item| {
        let (outcome, attempts) = run_isolated_cancellable(retries, None, || f(i, item));
        retried.fetch_add(attempts as u64, Ordering::Relaxed);
        if !outcome.is_ok() {
            failed.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    });
    (
        outcomes,
        IsolationStats {
            failed: failed.load(Ordering::Relaxed),
            retried: retried.load(Ordering::Relaxed),
        },
    )
}

/// Everything derivable from a benchmark's *source* (pre-allocation)
/// form, shared across the approaches that compile it.
#[derive(Clone, Debug)]
pub struct SourceArtifacts {
    /// The parsed, still-virtual program.
    pub program: Program,
    /// Per-function MAXLIVE (the `Adaptive` enablement test), in
    /// `program.funcs` order.
    pub pressures: Vec<usize>,
}

impl SourceArtifacts {
    /// Parse and analyze one benchmark.
    pub fn analyze(name: &str) -> SourceArtifacts {
        let program = benchmark(name);
        let pressures = program
            .funcs
            .iter()
            .map(dra_ir::liveness::max_pressure_of)
            .collect();
        SourceArtifacts { program, pressures }
    }
}

/// Default entry bound for [`SourceCache`] — far above the ten built-in
/// benchmarks (so the batch pipelines never evict and their counters keep
/// the schedule-invariance contract), small enough that a resident daemon
/// holds a bounded working set of parsed programs.
pub const DEFAULT_SOURCE_CAPACITY: usize = 512;

/// A thread-safe, LRU-bounded memo of [`SourceArtifacts`] keyed by
/// benchmark name.
///
/// Every figure pipeline compiles each benchmark under several approaches;
/// the parse and the liveness analysis of the virgin program depend only
/// on the name, so they are computed once and shared (`Arc`) with all
/// consumers. Safe to use from [`run_batch`] workers.
///
/// The memo is bounded ([`LruCache`], default
/// [`DEFAULT_SOURCE_CAPACITY`]): a long-lived serving process
/// ([`crate::serve`]) cannot grow it without limit. Evictions surface as
/// `source_cache.evictions`; they are zero — and all counters remain
/// schedule-invariant — whenever the distinct key count stays within
/// capacity, which holds for every batch pipeline.
pub struct SourceCache {
    entries: Mutex<LruCache<String, Arc<SourceArtifacts>>>,
    /// Total `get` calls. One per consumer, so schedule-invariant.
    lookups: AtomicU64,
    /// Distinct keys whose artifacts this cache ended up owning. Counted
    /// at insert-win time, *not* per computation: when two workers race
    /// on the same benchmark both compute but only the first insert
    /// counts, so the value is the number of distinct benchmarks — a pure
    /// function of the work list, never of the schedule (as long as
    /// nothing is evicted and recomputed).
    misses: AtomicU64,
}

impl Default for SourceCache {
    fn default() -> Self {
        SourceCache::with_capacity(DEFAULT_SOURCE_CAPACITY)
    }
}

impl SourceCache {
    /// An empty cache with the default entry bound.
    pub fn new() -> SourceCache {
        SourceCache::default()
    }

    /// An empty cache holding at most `capacity` benchmarks.
    pub fn with_capacity(capacity: usize) -> SourceCache {
        SourceCache {
            entries: Mutex::new(LruCache::new(capacity)),
            lookups: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Lock the memo, recovering from poison.
    ///
    /// A worker panicking while holding the lock poisons the mutex, but
    /// the map's invariant survives any panic point: values are
    /// insert-once `Arc`s, never mutated in place, so a poisoned map is
    /// still a valid (possibly smaller) memo. Recovering here keeps one
    /// contained cell failure from cascading cache panics into every
    /// other cell of the batch.
    fn entries(&self) -> MutexGuard<'_, LruCache<String, Arc<SourceArtifacts>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The artifacts for `name`, computing them on first request.
    ///
    /// The analysis runs outside the lock; if two workers race on the
    /// same benchmark the first inserted result wins and the duplicate is
    /// dropped, so every consumer sees the same `Arc`.
    pub fn get(&self, name: &str) -> Arc<SourceArtifacts> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(a) = self.entries().get(&name.to_string()) {
            return Arc::clone(a);
        }
        let computed = Arc::new(SourceArtifacts::analyze(name));
        let mut entries = self.entries();
        match entries.get(&name.to_string()) {
            Some(winner) => Arc::clone(winner),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                entries.insert(name.to_string(), Arc::clone(&computed));
                computed
            }
        }
    }

    /// Record the cache's counters (`source_cache.lookups` / `.misses` /
    /// `.hits` / `.evictions`) into `t`.
    ///
    /// Hits are derived as `lookups - misses`: a racing duplicate
    /// computation is neither a hit nor a miss, keeping all three values
    /// pure functions of the work list. Evictions are zero (and the whole
    /// record schedule-invariant) whenever the distinct keys fit the
    /// capacity; past the bound, eviction order — and therefore recompute
    /// misses — can depend on request interleaving, which a resident
    /// server reports as observed.
    pub fn record_counters(&self, t: &mut Telemetry) {
        let lookups = self.lookups.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        t.count("source_cache.lookups", lookups);
        t.count("source_cache.misses", misses);
        t.count("source_cache.hits", lookups - misses);
        t.count("source_cache.evictions", self.entries().evictions());
    }

    /// Number of memoized benchmarks.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Entries evicted by the LRU bound since construction.
    pub fn evictions(&self) -> u64 {
        self.entries().evictions()
    }
}

/// Run the full benchmarks × approaches grid in parallel
/// ([`LowEndSetup::batch_threads`] workers), sharing one [`SourceCache`].
///
/// Returns `matrix[bi][ai]` = the run of `names[bi]` under
/// `approaches[ai]`, bit-identical at any thread count, and batch-level
/// telemetry: every successful cell's counters and spans summed in
/// cell-index order (so the aggregate is bit-identical at any thread
/// count, like the cells themselves), plus the cell census
/// (`cells.ok`/`cells.err`/`cells.failed`/`cells.retried`, always
/// present), the shared [`CompileSession`]'s cache counters
/// (`source_cache.*` and `result_cache.*`), and a wall-clock `batch` span
/// around the whole grid.
///
/// Since the serving refactor the grid runs through a [`CompileSession`]:
/// the same object a resident `drac serve` daemon keeps across requests,
/// so batch and service compile through one code path. A figure grid's
/// cells are all distinct `(benchmark, approach)` keys, so its result
/// cache records only misses here — the counters stay schedule-invariant.
///
/// Cells run under [`run_batch_isolated`] with
/// [`LowEndSetup::cell_retries`] re-attempts: a panicking cell (including
/// one injected via [`crate::faults::PipelineFaults::panic_cells`])
/// surfaces as [`PipelineError::Panic`] in its own slot while every other
/// cell completes bit-identically to an undisturbed run.
pub fn run_lowend_matrix_with_telemetry(
    names: &[&str],
    approaches: &[Approach],
    setup: &LowEndSetup,
) -> (Vec<Vec<Result<LowEndRun, PipelineError>>>, Telemetry) {
    let mut agg = Telemetry::new();
    let session = CompileSession::new(setup.clone());
    let cells: Vec<(usize, usize)> = (0..names.len())
        .flat_map(|bi| (0..approaches.len()).map(move |ai| (bi, ai)))
        .collect();
    let (flat, iso) = agg.time("batch", || {
        run_batch_isolated(
            &cells,
            setup.batch_threads,
            setup.cell_retries,
            |ci, &(bi, ai)| {
                if setup.faults.panic_cells.contains(&ci) {
                    panic!("injected cell fault (cell {ci})");
                }
                session
                    .compile_bench(names[bi], approaches[ai])
                    .map(|(run, _cached)| (*run).clone())
            },
        )
    });
    // Seed the census at zero so every key is present even in a clean run
    // (consumers diff telemetry files; an absent key reads as a schema
    // change rather than a zero).
    for key in ["cells.ok", "cells.err", "cells.failed", "cells.retried"] {
        agg.count(key, 0);
    }
    agg.count("cells.failed", iso.failed);
    agg.count("cells.retried", iso.retried);
    let mut matrix: Vec<Vec<Result<LowEndRun, PipelineError>>> =
        (0..names.len()).map(|_| Vec::new()).collect();
    for ((bi, _), outcome) in cells.into_iter().zip(flat) {
        let run = match outcome {
            CellOutcome::Ok(run) => run,
            CellOutcome::Failed { stage, message } => Err(PipelineError::Panic { stage, message }),
            // Batch cells run without a cancel token, so this arm is
            // unreachable; it exists for exhaustiveness.
            CellOutcome::Cancelled { stage } => Err(PipelineError::Panic {
                stage,
                message: "cancelled".to_string(),
            }),
        };
        match &run {
            Ok(r) => {
                agg.count("cells.ok", 1);
                agg.merge(&r.telemetry);
            }
            Err(_) => agg.count("cells.err", 1),
        }
        matrix[bi].push(run);
    }
    session.record_counters(&mut agg);
    (matrix, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowend::compile_and_run;

    /// Zero the remap wall-clock field (`search_nanos`) and drop telemetry
    /// spans: they measure wall-clock time, not the compilation result, so
    /// two otherwise-identical runs differ there. The remap *work*
    /// counters (`evaluations`, `starts_run`) are schedule-invariant — the
    /// multistart splits its budget deterministically — so they stay in
    /// the comparison.
    fn normalized(mut r: LowEndRun) -> LowEndRun {
        for st in &mut r.remap {
            st.search_nanos = 0;
        }
        r.telemetry.clear_spans();
        r
    }

    #[test]
    fn run_batch_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = run_batch(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_batch_handles_empty_and_tiny_inputs() {
        let empty: [u32; 0] = [];
        assert!(run_batch(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(run_batch(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn run_batch_isolated_contains_a_panicking_cell() {
        let items: Vec<usize> = (0..10).collect();
        for threads in [1, 2, 8] {
            let (out, stats) = run_batch_isolated(&items, threads, 1, |_, &x| {
                if x == 5 {
                    panic!("injected fault in cell {x}");
                }
                x * 2
            });
            assert_eq!(stats, IsolationStats { failed: 1, retried: 1 });
            for (i, o) in out.iter().enumerate() {
                if i == 5 {
                    match o {
                        CellOutcome::Failed { stage, message } => {
                            assert_eq!(stage, "cell", "panic outside any telemetry stage");
                            assert!(message.contains("injected fault in cell 5"), "{message}");
                        }
                        other => panic!("cell 5 should have failed, got {other:?}"),
                    }
                } else {
                    assert_eq!(o.as_ok(), Some(&(i * 2)), "cell {i} survived untouched");
                }
            }
        }
    }

    #[test]
    fn run_batch_isolated_attributes_the_stage_and_retries() {
        let items = [0usize];
        let (out, stats) = run_batch_isolated(&items, 1, 2, |_, &x| {
            let mut t = Telemetry::new();
            t.time("alloc", || {
                if x == 0 {
                    panic!("boom");
                }
                x
            })
        });
        assert_eq!(stats, IsolationStats { failed: 1, retried: 2 });
        match &out[0] {
            CellOutcome::Failed { stage, message } => {
                assert_eq!(stage, "alloc");
                assert_eq!(message, "boom");
            }
            other => panic!("cell should have failed, got {other:?}"),
        }
    }

    #[test]
    fn run_isolated_cancellable_stops_at_the_next_stage_boundary() {
        crate::telemetry::install_cancel_quiet_hook();
        let token = CancelToken::new();
        let (outcome, retried) = run_isolated_cancellable(3, Some(&token), || {
            let mut t = Telemetry::new();
            t.time("alloc", || token.cancel());
            t.time("verify", || unreachable!("stage after cancellation must not run"))
        });
        assert_eq!(retried, 0, "cancellation is never retried");
        match outcome {
            CellOutcome::Cancelled { stage } => assert_eq!(stage, "verify"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn run_isolated_cancellable_short_circuits_an_expired_token() {
        let token = CancelToken::new();
        token.cancel();
        let ran = std::sync::atomic::AtomicBool::new(false);
        let (outcome, retried) = run_isolated_cancellable(2, Some(&token), || {
            ran.store(true, Ordering::SeqCst);
        });
        assert!(!ran.load(Ordering::SeqCst), "work never starts");
        assert_eq!(retried, 0);
        match outcome {
            CellOutcome::Cancelled { stage } => assert_eq!(stage, "start"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn run_isolated_cancellable_without_token_matches_run_isolated() {
        let (outcome, retried) = run_isolated_cancellable(1, None, || 7);
        assert_eq!(outcome, CellOutcome::Ok(7));
        assert_eq!(retried, 0);
        // Real panics still retry and attribute stages with a token armed.
        let token = CancelToken::new();
        let (outcome, retried) = run_isolated_cancellable(2, Some(&token), || {
            let mut t = Telemetry::new();
            t.time("repair", || panic!("boom"))
        });
        assert_eq!(retried, 2);
        match outcome {
            CellOutcome::Failed { stage, message } => {
                assert_eq!(stage, "repair");
                assert_eq!(message, "boom");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn cache_recovers_from_a_poisoned_lock() {
        let cache = SourceCache::new();
        cache.get("crc32");
        // Poison the mutex the way a mid-batch worker panic would: unwind
        // while holding the guard.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = cache.entries.lock().unwrap();
            panic!("injected panic while holding the cache lock");
        }));
        assert!(cache.entries.lock().is_err(), "lock is actually poisoned");
        // The cache keeps serving: hits recover the memo, misses insert.
        let a = cache.get("crc32");
        assert_eq!(a.pressures.len(), a.program.funcs.len());
        cache.get("bitcount");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_memoizes_and_shares() {
        let cache = SourceCache::new();
        assert!(cache.is_empty());
        let a = cache.get("crc32");
        let b = cache.get("crc32");
        assert!(Arc::ptr_eq(&a, &b), "second get hits the memo");
        assert_eq!(cache.len(), 1);
        assert_eq!(a.pressures.len(), a.program.funcs.len());
    }

    #[test]
    fn cached_run_matches_direct_pipeline() {
        let setup = LowEndSetup::default();
        let session = CompileSession::new(setup.clone());
        for approach in [Approach::Baseline, Approach::Select, Approach::Adaptive] {
            let direct = normalized(compile_and_run("crc32", approach, &setup).unwrap());
            let (cached, _) = session.compile_bench("crc32", approach).unwrap();
            let cached = normalized((*cached).clone());
            assert_eq!(direct, cached, "{} diverged", approach.label());
        }
    }

    #[test]
    fn matrix_matches_serial_runs() {
        let setup = LowEndSetup::default();
        let names = ["crc32", "bitcount"];
        let approaches = [Approach::Baseline, Approach::Coalesce];
        let (matrix, _) = run_lowend_matrix_with_telemetry(&names, &approaches, &setup);
        assert_eq!(matrix.len(), names.len());
        for (bi, name) in names.iter().enumerate() {
            assert_eq!(matrix[bi].len(), approaches.len());
            for (ai, &a) in approaches.iter().enumerate() {
                let direct = normalized(compile_and_run(name, a, &setup).unwrap());
                let batched = normalized(matrix[bi][ai].as_ref().unwrap().clone());
                assert_eq!(direct, batched, "{name}/{} diverged", a.label());
            }
        }
    }
}
