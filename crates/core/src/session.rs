//! A reusable, `Send + Sync` compile session: the one pipeline entry
//! point. The CLI, the figure binaries, the batch driver and a resident
//! service all compile through it.
//!
//! One object owns the setup and the caches, and any number of worker
//! threads can call it concurrently with no per-call global state.
//! [`CompileSession`] is that object:
//!
//! * the [`LowEndSetup`] is fixed at construction, so every request
//!   compiles under one configuration and results are comparable and
//!   cacheable;
//! * a [`SourceCache`] memoizes parse + MAXLIVE per benchmark name;
//! * a **content-hash-keyed, LRU-bounded result cache** memoizes whole
//!   [`LowEndRun`]s: two requests for identical input under the same
//!   approach share one allocation, giving a resident server its
//!   warm-path latency floor;
//! * a [`RemapCache`] memoizes remapping searches by their whole input:
//!   two different requests whose functions reach the same search (an
//!   `Adaptive` function compiled exactly as `Select`, a `Coalesce`
//!   allocation identical to `Select`'s) run it once. Its capacity is the
//!   fixed [`dra_regalloc::REMAP_CACHE_CAPACITY`], and it lives and dies
//!   with the session: no search result ever crosses from one session to
//!   another.
//!
//! Keys are 128-bit FNV-1a hashes over `(namespace, content, approach)`
//! where content is the benchmark name (`bench:`) or the full program
//! text (`src:`). The pipelines are deterministic, so a cache hit is
//! bit-identical to a recompute — concurrency changes *when* work
//! happens, never *what* is produced. Only `Ok` runs are cached; errors
//! are recomputed (they are cheap — they fail early — and keeping them
//! out avoids caching transient injected faults).
//!
//! Counter semantics follow [`SourceCache`]: lookups count every call,
//! misses count insert-wins, hits are derived, so all `result_cache.*`
//! values are schedule-invariant as long as nothing is evicted (a racing
//! duplicate computation is neither hit nor miss, and an error is
//! counted under `result_cache.uncacheable`). The search cache counts
//! `remap_cache.lookups` (one per remapped function) and
//! `remap_cache.hits` (lookups minus distinct searches, since a search is
//! claimed before it runs), which are schedule-invariant on the same
//! terms.

use crate::batch::{SourceCache, DEFAULT_SOURCE_CAPACITY};
use crate::cache::LruCache;
use crate::lowend::{compile_and_simulate, Approach, LowEndRun, LowEndSetup, PipelineError};
use crate::profile::apply_profile;
use crate::telemetry::Telemetry;
use dra_ir::validate::{validate_function, validate_program, ValidateError};
use dra_ir::Program;
use dra_regalloc::{RemapCache, RemapStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default entry bound for the allocation-result cache. A [`LowEndRun`]
/// retains the compiled program, so the bound is deliberately tighter
/// than the source cache's.
pub const DEFAULT_RESULT_CAPACITY: usize = 256;

/// A 128-bit content key: two independent FNV-1a-64 lanes over the same
/// byte stream. Collisions across distinct requests are negligible at
/// cache scale, and the hash is stable across processes (no randomized
/// state), so keys are reproducible for tests and the load harness.
pub type ResultKey = [u64; 2];

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
// Second lane: a different, odd offset basis decorrelates the lanes.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The result-cache key for `(namespace, content, approach)`. Fields are
/// separated by a `0xFF` byte (which cannot appear in UTF-8 text), so
/// `("ab","c")` and `("a","bc")` cannot collide structurally.
pub fn result_key(namespace: &str, content: &str, approach: Approach) -> ResultKey {
    let mut a = FNV_OFFSET_A;
    let mut b = FNV_OFFSET_B;
    for part in [namespace, content, approach.label()] {
        a = fnv1a(a, part.as_bytes());
        a = fnv1a(a, &[0xFF]);
        b = fnv1a(b, part.as_bytes());
        b = fnv1a(b, &[0xFF]);
    }
    [a, b]
}

/// A resident compile session: fixed [`LowEndSetup`], shared caches,
/// callable from any number of threads.
pub struct CompileSession {
    setup: LowEndSetup,
    sources: SourceCache,
    results: Mutex<LruCache<ResultKey, Arc<LowEndRun>>>,
    /// Remapping searches this session ran, shared by its workers.
    remaps: RemapCache,
    /// Total result-cache consults (one per compile call).
    lookups: AtomicU64,
    /// Insert-wins (see the module docs for why this, not computations).
    misses: AtomicU64,
    /// Compile calls that errored and were therefore not cached.
    uncacheable: AtomicU64,
}

impl CompileSession {
    /// A session holding at most [`DEFAULT_SOURCE_CAPACITY`] parsed
    /// sources and [`DEFAULT_RESULT_CAPACITY`] results.
    pub fn new(setup: LowEndSetup) -> CompileSession {
        CompileSession::with_capacities(setup, DEFAULT_SOURCE_CAPACITY, DEFAULT_RESULT_CAPACITY)
    }

    /// A session with explicit cache bounds (the LRU tests use small ones).
    pub(crate) fn with_capacities(setup: LowEndSetup, sources: usize, results: usize) -> Self {
        CompileSession {
            sources: SourceCache::with_capacity(sources),
            results: Mutex::new(LruCache::new(results)),
            remaps: RemapCache::new(),
            setup,
            lookups: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }

    /// The fixed setup every request compiles under.
    pub fn setup(&self) -> &LowEndSetup {
        &self.setup
    }

    /// The shared source-artifact cache.
    pub fn sources(&self) -> &SourceCache {
        &self.sources
    }

    /// Lock the result cache, recovering from poison (same argument as
    /// [`SourceCache`]: values are insert-once `Arc`s, so a map abandoned
    /// mid-panic is still a valid, possibly smaller, memo).
    fn results(&self) -> MutexGuard<'_, LruCache<ResultKey, Arc<LowEndRun>>> {
        self.results.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Compile a named built-in benchmark, serving repeats from the
    /// result cache. A miss clones the benchmark out of the source cache
    /// instead of re-parsing it, and `Adaptive` reuses its memoized
    /// pressures. Returns the run and whether it was served from cache.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`]; errors are never cached.
    pub fn compile_bench(
        &self,
        name: &str,
        approach: Approach,
    ) -> Result<(Arc<LowEndRun>, bool), PipelineError> {
        let key = result_key("bench", name, approach);
        self.compile_keyed(key, || {
            let src = self.sources.get(name);
            let pressures = Some(&src.pressures[..]);
            let t = Telemetry::new();
            compile_and_simulate(&src.program, pressures, approach, &self.setup, &self.remaps, t)
        })
    }

    /// Compile `p` in place under `approach` without simulating it,
    /// recording spans and counters into `t` (see [`crate::telemetry`]).
    /// Returns the remapping-search statistics of the functions compiled
    /// differentially, in function order. Nothing is result-cached, but
    /// searches this session already ran come from its search cache.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] and, for degradation,
    /// [`LowEndSetup::degrade`].
    pub fn compile_program(
        &self,
        p: &mut Program,
        approach: Approach,
        t: &mut Telemetry,
    ) -> Result<Vec<RemapStats>, PipelineError> {
        crate::lowend::compile_program(p, approach, &self.setup, None, &self.remaps, t)
    }

    /// Compile the built-in benchmark `name` under `approach` with the
    /// block counts of this session's `Baseline` run as its frequencies
    /// (Section 4; see [`crate::profile`]), counting the blocks that run
    /// never reached as `profile.cold_blocks`. Not result-cached.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`].
    pub fn compile_profiled(
        &self,
        name: &str,
        approach: Approach,
    ) -> Result<LowEndRun, PipelineError> {
        // Any allocation yields the same block counts, since allocation
        // preserves control flow.
        let (profile_run, _) = self.compile_bench(name, Approach::Baseline)?;
        let src = self.sources.get(name);
        let mut p = src.program.clone();
        let mut t = Telemetry::new();
        let cold = apply_profile(&mut p, &profile_run.block_counts);
        t.count("profile.cold_blocks", cold as u64);
        // MAXLIVE does not depend on block frequencies.
        let pressures = Some(&src.pressures[..]);
        compile_and_simulate(&p, pressures, approach, &self.setup, &self.remaps, t)
    }

    /// Compile arbitrary program text (parse → validate → full pipeline),
    /// result-cached by the text's content hash. Returns the run and
    /// whether it was served from cache.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] / [`PipelineError::Validate`] for bad
    /// text, otherwise as [`CompileSession::compile_bench`]. Malformed
    /// text is always a structured error, never a panic. Errors are never
    /// cached.
    pub fn compile_source(
        &self,
        text: &str,
        approach: Approach,
    ) -> Result<(Arc<LowEndRun>, bool), PipelineError> {
        let key = result_key("src", text, approach);
        self.compile_keyed(key, || {
            let mut t = Telemetry::new();
            let program = t.time("parse", || dra_ir::parse::parse_program(text))?;
            let invalid = |func| move |e: ValidateError| PipelineError::Validate {
                func,
                message: e.to_string(),
            };
            for (fi, f) in program.funcs.iter().enumerate() {
                validate_function(f).map_err(invalid(fi))?;
            }
            // Cross-function checks (callee indices) on top of the
            // per-function pass above, which named the offending function.
            validate_program(&program).map_err(invalid(0))?;
            compile_and_simulate(&program, None, approach, &self.setup, &self.remaps, t)
        })
    }

    fn compile_keyed(
        &self,
        key: ResultKey,
        compute: impl FnOnce() -> Result<LowEndRun, PipelineError>,
    ) -> Result<(Arc<LowEndRun>, bool), PipelineError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.results().get(&key) {
            return Ok((Arc::clone(hit), true));
        }
        // A cache hit is always worth returning even past a deadline (it is
        // nearly free), but starting a fresh compile for an expired request
        // is pure waste — check the caller's cancellation token (if any)
        // before committing to the expensive path.
        crate::telemetry::check_cancelled("session.compute");
        // Compute outside the lock: a slow compile must not serialize the
        // whole pool behind one request.
        let run = match compute() {
            Ok(run) => Arc::new(run),
            Err(e) => {
                self.uncacheable.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let mut results = self.results();
        match results.get(&key) {
            // A racing duplicate computed the same thing first; its insert
            // won. The pipelines are deterministic, so either Arc carries
            // identical data — share the winner's.
            Some(winner) => Ok((Arc::clone(winner), false)),
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                results.insert(key, Arc::clone(&run));
                Ok((run, false))
            }
        }
    }

    /// Results currently held.
    pub fn result_cache_len(&self) -> usize {
        self.results().len()
    }

    /// Record the session's cache counters into `t`: `source_cache.*` (see
    /// [`SourceCache::record_counters`]), `result_cache.lookups` /
    /// `.hits` / `.misses` / `.evictions` / `.uncacheable`, and
    /// `remap_cache.lookups` / `.hits` / `.evictions`.
    pub fn record_counters(&self, t: &mut Telemetry) {
        self.sources.record_counters(t);
        let lookups = self.lookups.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let uncacheable = self.uncacheable.load(Ordering::Relaxed);
        t.count("result_cache.lookups", lookups);
        t.count("result_cache.misses", misses);
        t.count("result_cache.uncacheable", uncacheable);
        t.count(
            "result_cache.hits",
            lookups.saturating_sub(misses).saturating_sub(uncacheable),
        );
        t.count("result_cache.evictions", self.results().evictions());
        self.record_remap_counters(t);
    }

    /// Record only the search cache's counters into `t`:
    /// `remap_cache.lookups` / `.hits` / `.evictions`.
    pub fn record_remap_counters(&self, t: &mut Telemetry) {
        t.count("remap_cache.lookups", self.remaps.lookups());
        t.count("remap_cache.hits", self.remaps.hits());
        t.count("remap_cache.evictions", self.remaps.evictions());
    }
}

// The whole point of the session object: safe to share behind an `Arc`
// across a worker pool. Fails to compile if any field regresses.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompileSession>()
};

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_setup() -> LowEndSetup {
        LowEndSetup {
            remap_starts: 20,
            remap_threads: 1,
            ..LowEndSetup::default()
        }
    }

    /// Zero the remap wall-clock field and drop telemetry spans: they
    /// measure time, not the compilation result.
    fn normalized(mut r: LowEndRun) -> LowEndRun {
        for st in &mut r.remap {
            st.search_nanos = 0;
        }
        r.telemetry.clear_spans();
        r
    }

    #[test]
    fn result_keys_separate_namespaces_and_fields() {
        let k1 = result_key("bench", "crc32", Approach::Select);
        assert_eq!(k1, result_key("bench", "crc32", Approach::Select));
        assert_ne!(k1, result_key("src", "crc32", Approach::Select));
        assert_ne!(k1, result_key("bench", "crc32", Approach::Baseline));
        assert_ne!(k1, result_key("bench", "crc3", Approach::Select));
        // Field boundaries are delimited, not concatenated.
        assert_ne!(
            result_key("ab", "c", Approach::Select),
            result_key("a", "bc", Approach::Select)
        );
    }

    #[test]
    fn bench_repeats_hit_the_result_cache() {
        let session = CompileSession::new(quick_setup());
        let (first, cached1) = session.compile_bench("crc32", Approach::Select).unwrap();
        assert!(!cached1, "first compile is a miss");
        let (second, cached2) = session.compile_bench("crc32", Approach::Select).unwrap();
        assert!(cached2, "repeat is served from cache");
        assert!(Arc::ptr_eq(&first, &second), "one shared allocation");
        let mut t = Telemetry::new();
        session.record_counters(&mut t);
        assert_eq!(t.counter("result_cache.lookups"), 2);
        assert_eq!(t.counter("result_cache.misses"), 1);
        assert_eq!(t.counter("result_cache.hits"), 1);
        assert_eq!(t.counter("result_cache.evictions"), 0);
    }

    #[test]
    fn source_text_is_content_hash_keyed() {
        let session = CompileSession::new(quick_setup());
        let text = dra_workloads::benchmark("bitcount").to_string();
        let (a, cached_a) = session.compile_source(&text, Approach::Baseline).unwrap();
        assert!(!cached_a);
        let (b, cached_b) = session.compile_source(&text, Approach::Baseline).unwrap();
        assert!(cached_b);
        assert!(Arc::ptr_eq(&a, &b));
        // Different content (a trailing comment the parser ignores) is a
        // different key — content-hashing is textual, by design.
        let variant = format!("{text}\n; uniq 1\n");
        let (c, cached_c) = session.compile_source(&variant, Approach::Baseline).unwrap();
        assert!(!cached_c);
        assert_eq!(a.cycles, c.cycles, "identical program, identical run");
        assert_eq!(a.ret_value, c.ret_value);
    }

    #[test]
    fn errors_are_not_cached() {
        let session = CompileSession::new(quick_setup());
        for _ in 0..2 {
            let err = session
                .compile_source("fn broken(", Approach::Baseline)
                .unwrap_err();
            assert!(matches!(err, PipelineError::Parse(_)), "{err}");
        }
        let mut t = Telemetry::new();
        session.record_counters(&mut t);
        assert_eq!(t.counter("result_cache.lookups"), 2);
        assert_eq!(t.counter("result_cache.misses"), 0);
        assert_eq!(t.counter("result_cache.uncacheable"), 2);
        assert_eq!(t.counter("result_cache.hits"), 0);
        assert_eq!(session.result_cache_len(), 0);
    }

    #[test]
    fn session_matches_the_one_shot_pipeline() {
        // A shared session's caches never change a run: every compile
        // equals the same compile in a one-shot session with empty caches.
        let session = CompileSession::new(quick_setup());
        for approach in [Approach::Baseline, Approach::Select, Approach::Adaptive] {
            let fresh = CompileSession::new(quick_setup());
            let (want, _) = fresh.compile_bench("bitcount", approach).unwrap();
            let (got, _) = session.compile_bench("bitcount", approach).unwrap();
            assert_eq!(
                normalized((*want).clone()),
                normalized((*got).clone()),
                "{}",
                approach.label()
            );
        }
    }

    #[test]
    fn compile_program_matches_the_harness_wrapper() {
        let mut want = dra_workloads::benchmark("sha");
        let mut wt = Telemetry::new();
        let ws = crate::lowend::compile_program_telemetry(
            &mut want,
            Approach::Select,
            &quick_setup(),
            None,
            &mut wt,
        )
        .unwrap();
        let session = CompileSession::new(quick_setup());
        let mut got = dra_workloads::benchmark("sha");
        let mut gt = Telemetry::new();
        let gs = session
            .compile_program(&mut got, Approach::Select, &mut gt)
            .unwrap();
        assert_eq!(want.to_string(), got.to_string());
        wt.clear_spans();
        gt.clear_spans();
        assert_eq!(wt, gt);
        let timeless = |mut stats: Vec<RemapStats>| {
            stats.iter_mut().for_each(|st| st.search_nanos = 0);
            stats
        };
        assert_eq!(timeless(ws), timeless(gs));
    }

    #[test]
    fn sessions_never_share_remap_searches() {
        let remap_counts = |session: &CompileSession| {
            let mut t = Telemetry::new();
            session.record_counters(&mut t);
            (
                t.counter("remap_cache.lookups"),
                t.counter("remap_cache.hits"),
            )
        };
        // `Adaptive` compiles sha's pressured functions exactly as `Select`
        // does, so within one session its searches are all repeats.
        let first = CompileSession::new(quick_setup());
        first.compile_bench("sha", Approach::Select).unwrap();
        let (searches, hits) = remap_counts(&first);
        assert!(searches > 0);
        assert_eq!(hits, 0);
        first.compile_bench("sha", Approach::Adaptive).unwrap();
        let (lookups, hits) = remap_counts(&first);
        assert!(
            hits > 0 && hits == lookups - searches,
            "{lookups} lookups, {hits} hits"
        );
        // A fresh session starts empty: the same request misses every time.
        let second = CompileSession::new(quick_setup());
        second.compile_bench("sha", Approach::Adaptive).unwrap();
        assert_eq!(remap_counts(&second), (lookups - searches, 0));
        // And a fresh session per matrix pass: two passes report the same
        // counters, the first pass's searches never answering the second's.
        let names = ["sha", "crc32"];
        let approaches = [Approach::Select, Approach::Adaptive];
        let pass = || {
            let (_, mut t) =
                crate::batch::run_lowend_matrix_with_telemetry(&names, &approaches, &quick_setup());
            t.clear_spans();
            t
        };
        let once = pass();
        let hits = once.counter("remap_cache.hits");
        assert!(hits > 0 && hits < once.counter("remap_cache.lookups"));
        assert_eq!(pass(), once);
    }

    #[test]
    fn result_cache_is_lru_bounded() {
        let session = CompileSession::with_capacities(quick_setup(), 16, 2);
        session.compile_bench("crc32", Approach::Baseline).unwrap();
        session.compile_bench("bitcount", Approach::Baseline).unwrap();
        session.compile_bench("qsort", Approach::Baseline).unwrap();
        assert_eq!(session.result_cache_len(), 2);
        let mut t = Telemetry::new();
        session.record_counters(&mut t);
        assert_eq!(t.counter("result_cache.evictions"), 1);
        // The evicted (LRU) entry recomputes; the survivors still hit.
        let (_, cached) = session.compile_bench("qsort", Approach::Baseline).unwrap();
        assert!(cached);
        let (_, cached) = session.compile_bench("crc32", Approach::Baseline).unwrap();
        assert!(!cached, "crc32 was the LRU victim");
    }
}
