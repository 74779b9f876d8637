//! What every workload shares: the run context, the outcome it reports,
//! repeated set-up, latency summaries and the timed-window loop.

use crate::stats::{median, percentile, tail, Failures};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up runs at least this many times, and again until
/// [`SETUP_MIN_TIME`] has passed, at most [`SETUP_MAX_REPEATS`] times;
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// See [`SETUP_REPEATS`]: a set-up of a few milliseconds repeats often
/// enough for its median to be steady.
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);
/// See [`SETUP_REPEATS`].
const SETUP_MAX_REPEATS: usize = 200;

/// One invocation's settings.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads and connections (`available_parallelism`).
    pub threads: usize,
    /// Where sockets, spans and results go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The length of each half of a traced run: the untraced half sets
    /// the overhead baseline, the traced half yields the layer metrics.
    pub fn half_window(&self) -> Duration {
        self.window / 2
    }

    /// The untraced measurement's window and minimum step count: the
    /// whole window and `min_steps` on an untraced run, the first half
    /// and one step on a traced run (whose untraced half only sets the
    /// tracing-overhead baseline).
    pub fn untraced_window(&self, min_steps: usize) -> (Duration, usize) {
        if self.trace {
            (self.half_window(), 1)
        } else {
            (self.window, min_steps)
        }
    }
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (functions, cells, requests or loop cells).
    pub attempted: u64,
    /// Failed operations, by kind.
    pub failures: Failures,
    /// Correctness or determinism failures, as messages.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly across runs, worker counts and
    /// the traced/untraced split.
    pub counts: BTreeMap<String, u64>,
    /// Extra context lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a correctness problem.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Record a count under `key`, failing if it was already recorded
    /// with a different value.
    pub fn count(&mut self, key: impl Into<String>, value: u64) {
        let key = key.into();
        match self.counts.get(&key) {
            Some(&old) if old != value => {
                self.problems
                    .push(format!("count {key} not deterministic: {old} vs {value}"));
            }
            _ => {
                self.counts.insert(key, value);
            }
        }
    }

    /// Compare two count maps that must agree (`what` names the pair).
    pub fn same_counts(
        &mut self,
        what: &str,
        a: &BTreeMap<String, u64>,
        b: &BTreeMap<String, u64>,
    ) {
        if a != b {
            let diff: Vec<String> = a
                .iter()
                .filter(|(k, v)| b.get(*k) != Some(v))
                .map(|(k, v)| format!("{k}: {v} vs {:?}", b.get(k)))
                .take(4)
                .collect();
            self.problem(format!("{what}: counts differ ({})", diff.join(", ")));
        }
    }

    /// `p50_ms` and `tail_ms` of latencies in milliseconds.
    pub fn latency(&mut self, samples_ms: &[f64]) {
        let mut sorted = samples_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let t = tail(samples_ms);
        self.e2e.insert("p50_ms", percentile(&sorted, 50.0));
        self.e2e.insert("tail_ms", t.value);
        self.layers.insert("tail.percentile", t.percentile);
        self.layers.insert("tail.samples", t.samples as f64);
        self.notes.push(format!(
            "p50_ms over {} samples; tail_ms is p{} of {} samples",
            sorted.len(),
            t.percentile,
            t.samples
        ));
    }

    /// `setup_s` and `workloads.gen_ms`: medians over the repetitions.
    pub fn setup(&mut self, times: &SetupTimes) {
        self.e2e.insert("setup_s", median(&times.secs));
        self.layers
            .insert("workloads.gen_ms", median(&times.gen_ms));
        let secs: Vec<String> = times
            .secs
            .iter()
            .take(8)
            .map(|s| format!("{s:.4}"))
            .collect();
        self.notes.push(format!(
            "{} set-up repetitions (s): {}{}",
            times.secs.len(),
            secs.join(" "),
            if times.secs.len() > 8 { " …" } else { "" }
        ));
    }

    /// The session-cache layer metrics from `result_cache.*` and
    /// `source_cache.*` counters.
    pub fn caches(&mut self, t: &dra_core::Telemetry) {
        let share = |hits: &str, lookups: &str| {
            crate::stats::ratio(t.counter(hits) as f64, t.counter(lookups) as f64)
        };
        let l = &mut self.layers;
        l.insert(
            "result_cache.hit_share",
            share("result_cache.hits", "result_cache.lookups"),
        );
        l.insert(
            "result_cache.evictions",
            t.counter("result_cache.evictions") as f64,
        );
        l.insert(
            "source_cache.hit_share",
            share("source_cache.hits", "source_cache.lookups"),
        );
    }

    /// `trace.overhead_share`: the traced time of the steps both halves
    /// ran (the same inputs, in the same order) over their untraced time,
    /// less one.
    pub fn overhead(&mut self, untraced_ns: &[u64], traced_ns: &[u64]) {
        let common = untraced_ns.len().min(traced_ns.len());
        let sum = |v: &[u64]| v[..common].iter().sum::<u64>() as f64;
        self.layers.insert(
            "trace.overhead_share",
            crate::stats::ratio(sum(traced_ns), sum(untraced_ns)) - 1.0,
        );
    }
}

/// What repeated set-up measured.
pub struct SetupTimes {
    /// Each repetition's wall time, in seconds.
    pub secs: Vec<f64>,
    /// Each repetition's input-generation time, in ms.
    pub gen_ms: Vec<f64>,
}

/// Run `f` as often as [`SETUP_REPEATS`] says; returns the last result
/// and the times. `f` reports its own input-generation time (ms).
pub fn repeat_setup<T>(mut f: impl FnMut() -> (T, f64)) -> (T, SetupTimes) {
    let mut times = SetupTimes {
        secs: Vec::new(),
        gen_ms: Vec::new(),
    };
    let mut last = None;
    let start = Instant::now();
    while times.secs.len() < SETUP_REPEATS
        || (start.elapsed() < SETUP_MIN_TIME && times.secs.len() < SETUP_MAX_REPEATS)
    {
        let t0 = Instant::now();
        let (v, gen_ms) = f();
        times.secs.push(t0.elapsed().as_secs_f64());
        times.gen_ms.push(gen_ms);
        last = Some(v);
    }
    (last.expect("set-up ran"), times)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Call `step(i)` for i = 0, 1, … until `window` has elapsed (the step
/// in flight completes) and at least `min_steps` steps have run, so a
/// slow machine still collects the samples a fixed tail percentile
/// needs. Returns the number of steps.
pub fn for_window(window: Duration, min_steps: usize, mut step: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_steps.max(1) || start.elapsed() < window {
        step(i);
        i += 1;
    }
    i
}
