//! Pipeline telemetry: a lightweight, dependency-free span/counter
//! registry threaded through the compile→allocate→encode→verify→simulate
//! pipeline.
//!
//! Before this module existed the pipeline's measurements were scattered:
//! `RemapStats` carried the remap search's work counters, `RepairStats`
//! and `AllocStats` were computed and then dropped on the floor by the
//! drivers, and per-stage time was not recorded at all. [`Telemetry`] is
//! the single sink: every pipeline cell records named **counters** (work
//! done — spills, coalesced moves, repairs, remap evaluations, cache
//! hits) and named **spans** (per-stage wall-clock nanoseconds), and cells
//! merge into batch-level aggregates by summation.
//!
//! # Determinism contract
//!
//! The two kinds of measurement have different reproducibility guarantees,
//! mirroring how `RemapStats::search_nanos` has always been normalized out
//! of determinism tests:
//!
//! * **Counters are schedule-invariant**: they count work that is a pure
//!   function of the input (and of fixed configuration such as
//!   `RemapConfig::threads`), never of how the batch driver interleaved
//!   cells. Aggregated counter values are bit-identical at any
//!   `batch_threads` (pinned in `tests/batch_determinism.rs`).
//! * **Spans are wall-clock only**: they measure elapsed time and vary run
//!   to run. They are reported for profiling, excluded from every equality
//!   contract, and dropped by [`Telemetry::clear_spans`] wherever runs are
//!   compared.
//!
//! # JSON schema
//!
//! [`Telemetry::to_json`] emits a stable, versioned object (see
//! [`SCHEMA`]):
//!
//! ```json
//! {
//!   "schema": "dra-telemetry-v1",
//!   "binary": "fig11",
//!   "counters": { "alloc.spilled_vregs": 42, ... },
//!   "spans_ns": { "simulate": 1234567, ... }
//! }
//! ```
//!
//! Keys are sorted (both maps are `BTreeMap`s), counter/span names are
//! dot-separated `stage.metric` identifiers, and values are unsigned
//! integers. The figure/table binaries write one such object to
//! `results/telemetry/<binary>.json`; `drac report <path>` parses,
//! validates, and pretty-prints it — and the tier-1 smoke in
//! `scripts/tier1.sh` uses that same validation as a schema regression
//! guard. Parsing needs no dependency: [`parse_json`] is a minimal
//! recursive-descent JSON reader sufficient for the schema (and strict
//! enough to reject malformed files). Nor does writing: [`JsonWriter`]
//! writes every JSON document and protocol line in the workspace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// The stack of [`Telemetry::time`] span names currently live on this
    /// thread. Innermost last; read when a panic unwinds through a span.
    static STAGE_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// The innermost stage a panic unwound through, captured by the first
    /// [`StageGuard`] dropped while the thread is panicking. First write
    /// wins so outer spans cannot overwrite the precise site.
    static PANIC_STAGE: RefCell<Option<String>> = const { RefCell::new(None) };
    /// The cancellation token armed for the work currently running on this
    /// thread, if any. Checked at every stage boundary ([`enter_stage`]),
    /// so a long pipeline observes cancellation between `alloc`, `remap`,
    /// `repair`, `verify`, `simulate`, ... without any stage cooperating.
    static CANCEL: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// A cooperative cancellation token: an explicit cancel flag plus an
/// optional wall-clock deadline. Cloning shares the flag (an `Arc`), so a
/// server can hand the token to a worker and still cancel it from outside.
///
/// Cancellation is *cooperative*: nothing is interrupted mid-instruction.
/// Instead, [`arm_cancel`] installs the token in a thread-local slot and
/// every [`enter_stage`] boundary (plus explicit [`check_cancelled`]
/// call-sites such as the session cache) tests it. An expired token makes
/// the boundary unwind with a [`CancelUnwind`] payload, which
/// `run_isolated_cancellable` recognizes and converts into
/// `CellOutcome::Cancelled { stage }` — distinct from a real panic, never
/// retried.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A token that never expires on its own (cancel via [`Self::cancel`]).
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that expires at `deadline` (`None` behaves like [`Self::new`]).
    pub fn with_deadline(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            deadline,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Trip the explicit cancel flag (visible to every clone).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once the flag is tripped or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The unwind payload used by cancellation checkpoints. Carried through
/// `panic_any` so `catch_unwind` sites can tell "the deadline expired at a
/// stage boundary" apart from a genuine defect panic.
#[derive(Clone, Debug)]
pub struct CancelUnwind {
    /// The stage boundary (or named checkpoint) that observed cancellation.
    pub stage: String,
}

/// RAII restorer for the thread-local cancel slot; see [`arm_cancel`].
pub struct CancelGuard {
    prev: Option<CancelToken>,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CANCEL.with(|c| *c.borrow_mut() = prev);
    }
}

/// Install `token` as this thread's active cancellation token until the
/// guard drops (the previous token, if any, is restored — tokens nest).
pub fn arm_cancel(token: &CancelToken) -> CancelGuard {
    let prev = CANCEL.with(|c| c.borrow_mut().replace(token.clone()));
    CancelGuard { prev }
}

/// Explicit cancellation checkpoint: if this thread's armed token is
/// cancelled or past its deadline, unwind with [`CancelUnwind`] naming
/// `site`. A no-op when no token is armed (every non-serving caller).
pub fn check_cancelled(site: &str) {
    let expired = CANCEL.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    });
    if expired {
        std::panic::panic_any(CancelUnwind {
            stage: site.to_string(),
        });
    }
}

/// Install a process-wide panic-hook filter (once) that silences the panic
/// message for [`CancelUnwind`] payloads. Deadline cancellations are an
/// expected, counted outcome under load — without this, every shed request
/// would print a spurious "thread panicked" line. All other panics chain
/// to the previously installed hook unchanged.
pub fn install_cancel_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelUnwind>().is_none() {
                prev(info);
            }
        }));
    });
}

/// RAII marker for a named pipeline stage, pushed by [`Telemetry::time`]
/// (or [`enter_stage`] directly). When a panic unwinds through the guard,
/// the innermost live stage name is recorded for
/// [`take_panic_stage`] — that is how the panic-isolated batch driver
/// attributes a caught panic to `alloc`/`repair`/`verify`/`simulate`
/// without any cooperation from the panicking code.
pub struct StageGuard(());

impl Drop for StageGuard {
    fn drop(&mut self) {
        STAGE_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if std::thread::panicking() {
                if let Some(name) = stack.last() {
                    PANIC_STAGE.with(|p| {
                        let mut p = p.borrow_mut();
                        if p.is_none() {
                            *p = Some(name.clone());
                        }
                    });
                }
            }
            stack.pop();
        });
    }
}

/// Push `name` onto this thread's stage stack until the guard drops.
///
/// Every stage entry doubles as a cancellation checkpoint: if a
/// [`CancelToken`] is armed on this thread and has expired, the call
/// unwinds with [`CancelUnwind`] *before* the stage runs, so a request
/// whose deadline passed mid-pipeline stops at the next stage boundary
/// instead of burning a full compile.
pub fn enter_stage(name: &str) -> StageGuard {
    check_cancelled(name);
    STAGE_STACK.with(|stack| stack.borrow_mut().push(name.to_string()));
    StageGuard(())
}

/// Take (and clear) the stage the last caught panic unwound through, if
/// any. The panic-isolated batch driver calls this after `catch_unwind`
/// to label the failed cell; it also clears the slot *before* each
/// attempt so a stale stage from an earlier failure cannot leak in.
pub fn take_panic_stage() -> Option<String> {
    PANIC_STAGE.with(|p| p.borrow_mut().take())
}

/// Schema identifier embedded in every emitted telemetry object. Bump the
/// suffix when the layout changes incompatibly.
pub const SCHEMA: &str = "dra-telemetry-v1";

/// Keys every telemetry JSON object must carry to be schema-valid.
pub const REQUIRED_KEYS: [&str; 4] = ["schema", "binary", "counters", "spans_ns"];

/// Registered pipeline stages: the first dot-separated segment of every
/// counter and span name must appear here for a document to be
/// schema-valid. Keeping the registry in one place means a typo'd or
/// renamed stage fails `drac report` (and the tier-1 smoke) instead of
/// shipping a silently unreadable counter.
pub const STAGES: [&str; 21] = [
    "alloc",
    "batch",
    "cells",
    "checker",
    "corpus",
    "degrade",
    "faults",
    "irc",
    "parse",
    "profile",
    "remap",
    "remap_cache",
    "repair",
    "result_cache",
    "serve",
    "sim",
    "simulate",
    "source_cache",
    "sweep",
    "swp",
    "verify",
];

/// The span/counter registry of one pipeline cell or one aggregated batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, u64>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Add `delta` to counter `name` (creating it at zero).
    pub fn count(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Add `nanos` to span `name` (creating it at zero).
    pub fn span_ns(&mut self, name: &str, nanos: u64) {
        *self.spans.entry(name.to_string()).or_insert(0) += nanos;
    }

    /// Run `f`, recording its wall-clock time under span `name`. The span
    /// also serves as a stage marker: if `f` panics, the unwind records
    /// `name` (or a nested span's name) for [`take_panic_stage`].
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let _stage = enter_stage(name);
        let t0 = Instant::now();
        let r = f();
        self.span_ns(name, t0.elapsed().as_nanos() as u64);
        r
    }

    /// The value of counter `name` (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The accumulated nanoseconds of span `name` (0 if never recorded).
    pub fn span(&self, name: &str) -> u64 {
        self.spans.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All spans (nanoseconds), sorted by name.
    pub fn spans(&self) -> &BTreeMap<String, u64> {
        &self.spans
    }

    /// Sum another registry into this one (counters and spans add).
    pub fn merge(&mut self, other: &Telemetry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.spans {
            *self.spans.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Overwrite counter `name` with `value` (creating it if absent).
    /// For values that are a level rather than a running sum, such as the
    /// daemon's `serve.workers` and `serve.overload.peak_depth` gauges, and
    /// for rebuilding a registry from a parsed frame.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Drop every span. Used wherever two runs are compared for
    /// equality: spans are wall-clock-only and exempt from the
    /// determinism contract (two identical pipelines may not even record
    /// the same span *keys* — e.g. a cache-served run has no `parse`).
    pub fn clear_spans(&mut self) {
        self.spans.clear();
    }

    /// Serialize as the stable `dra-telemetry-v1` JSON object.
    pub fn to_json(&self, binary: &str) -> String {
        let mut w = JsonWriter::pretty();
        self.write_json(&mut w, binary);
        w.finish()
    }

    /// [`Telemetry::to_json`] on a single line — the form embedded in
    /// line-delimited protocols (`dra-serve-v1` `stats` responses), where
    /// a newline would terminate the frame. Parses to the same document.
    pub fn to_json_compact(&self, binary: &str) -> String {
        let mut w = JsonWriter::compact();
        self.write_json(&mut w, binary);
        w.finish()
    }

    fn write_json(&self, w: &mut JsonWriter, binary: &str) {
        w.obj().key("schema").str(SCHEMA).key("binary").str(binary);
        for (name, map) in [("counters", &self.counters), ("spans_ns", &self.spans)] {
            w.key(name).obj();
            for (k, v) in map {
                w.key(k).u64(*v);
            }
            w.end();
        }
        w.end();
    }

    /// Write `to_json` to `results/telemetry/<binary>.json` relative to
    /// `root`, creating the directory. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (missing `root`, permissions).
    pub fn write_results(
        &self,
        root: &std::path::Path,
        binary: &str,
    ) -> std::io::Result<PathBuf> {
        let dir = root.join("results").join("telemetry");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{binary}.json"));
        std::fs::write(&path, self.to_json(binary))?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------------
// JSON writer: every JSON document and protocol line the workspace emits.
// ---------------------------------------------------------------------------

/// A streaming JSON writer, compact or pretty (two-space indent), and
/// the only place strings are escaped. Values are appended in document
/// order: each object member is a [`JsonWriter::key`] then its value, and
/// [`JsonWriter::end`] closes the innermost object or array.
///
/// ```
/// use dra_core::telemetry::JsonWriter;
///
/// let mut w = JsonWriter::compact();
/// w.obj().key("name").str("crc32").key("bits").arr().u64(8).u64(16).end().end();
/// assert_eq!(w.finish(), r#"{"name":"crc32","bits":[8,16]}"#);
/// ```
pub struct JsonWriter {
    out: String,
    pretty: bool,
    /// Open containers, innermost last: closing bracket, has a member yet.
    open: Vec<(char, bool)>,
    /// A key was just written, so the next value follows it directly.
    after_key: bool,
}

impl JsonWriter {
    /// A writer producing a single line (protocol frames).
    pub fn compact() -> JsonWriter {
        JsonWriter { out: String::new(), pretty: false, open: Vec::new(), after_key: false }
    }

    /// A writer producing one member per line, `"key": value`, and a
    /// trailing newline (files). A closing bracket always gets its own
    /// line, even for an empty container.
    pub fn pretty() -> JsonWriter {
        JsonWriter { pretty: true, ..JsonWriter::compact() }
    }

    /// The finished document.
    pub fn finish(mut self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed JSON container");
        if self.pretty {
            self.out.push('\n');
        }
        self.out
    }

    /// Open an object.
    pub fn obj(&mut self) -> &mut Self {
        self.raw("{");
        self.open.push(('}', false));
        self
    }

    /// Open an array.
    pub fn arr(&mut self) -> &mut Self {
        self.raw("[");
        self.open.push((']', false));
        self
    }

    /// Close the innermost object or array.
    pub fn end(&mut self) -> &mut Self {
        let (close, _) = self.open.pop().expect("end() without an open container");
        self.newline();
        self.out.push(close);
        self
    }

    /// The next object member's key.
    pub fn key(&mut self, k: &str) -> &mut Self {
        debug_assert!(matches!(self.open.last(), Some(('}', _))), "key outside an object");
        self.str(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// A string value: quoted, with quotes, backslashes and control
    /// characters escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
        self
    }

    /// An unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// A signed integer value.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// A float value: the shortest form that round-trips, with `.0` on
    /// integral values so it still reads as a float. JSON has no NaN or
    /// infinity; those are written as `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let out = self.value();
        let _ = if v.fract() == 0.0 && v.abs() < 1e15 {
            write!(out, "{v:.1}")
        } else {
            write!(out, "{v}")
        };
        self
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// A preformatted value written verbatim, such as a number at a fixed
    /// precision (`format!("{x:.6}")`); the caller vouches that it is one
    /// JSON value.
    pub fn raw(&mut self, fragment: &str) -> &mut Self {
        self.value().push_str(fragment);
        self
    }

    /// Start the next value and return the buffer to write it into. After
    /// the first member of a container comes a comma, then (pretty) a
    /// newline and indentation; a value right after its key needs neither.
    fn value(&mut self) -> &mut String {
        if !std::mem::take(&mut self.after_key) {
            if let Some((_, has_member)) = self.open.last_mut() {
                if std::mem::replace(has_member, true) {
                    self.out.push(',');
                }
                self.newline();
            }
        }
        &mut self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.open.len()));
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (validation + `drac report`); no dependencies.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number an `f64` holds exactly, and every other non-integer
    /// literal (rounded). Every integer of magnitude up to 2^53 is a
    /// `Num`.
    Num(f64),
    /// A non-negative integer literal (no fraction, no exponent) above
    /// 2^53 that fits a `u64`, kept exact: above 2^53 an `f64` no longer
    /// holds every integer.
    Int(u64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as u64, if integral and in range. Every integer
    /// literal up to `u64::MAX` reads back exactly; a `Num` is read as it
    /// was rounded. `u64::MAX as f64` rounds up to 2^64, one past the
    /// range, so the bound is strict.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric value as f64 (rounded for an [`Json::Int`]), if this is
    /// a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Every document
/// the workspace writes nests at most a handful of levels; the cap keeps
/// a hostile line of `[[[[…` from overflowing the parsing thread's
/// stack.
const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected, nesting capped at 64 levels). Linear in the input
/// length.
///
/// # Errors
///
/// A human-readable description with the byte offset of the failure.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

/// Largest integer every smaller non-negative integer of which an `f64`
/// holds exactly.
const F64_EXACT_INT: u64 = 1 << 53;

/// A number by the JSON grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A plain
/// non-negative integer above 2^53 that fits a `u64` is a [`Json::Int`];
/// everything else is a [`Json::Num`].
fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let bad = || format!("bad number at byte {start}");
    // Advance past a run of digits; false if the run is empty.
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'0') {
        *pos += 1;
    } else if !digits(pos) {
        return Err(bad());
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(bad());
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(bad());
        }
    }
    // The grammar admits only ASCII, so the slice is valid UTF-8, and
    // every string it admits is a valid Rust float literal.
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if let Ok(n) = s.parse::<u64>() {
        if n > F64_EXACT_INT {
            return Ok(Json::Int(n));
        }
    }
    s.parse::<f64>().map(Json::Num).map_err(|_| bad())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A UTF-16 high surrogate must be followed by an
                        // escaped low one; the pair is one character.
                        if (0xD800..0xDC00).contains(&code) {
                            let escaped = b.get(*pos + 1..*pos + 3) == Some(br"\u");
                            let low = if escaped { hex4(b, *pos + 3)? } else { 0 };
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        let c = char::from_u32(code).ok_or_else(|| {
                            format!("unpaired surrogate \\u{code:04x} at byte {pos}", pos = *pos)
                        })?;
                        out.push(c);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next quote or
                // backslash in one slice. Both are ASCII, so the run ends
                // on a character boundary of the (already UTF-8) input.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// The value of exactly four ASCII hex digits at `b[at..]`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    digits.iter().try_fold(0, |acc, &d| {
        char::from(d)
            .to_digit(16)
            .map(|v| acc * 16 + v)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))
    })
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut arr = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(arr));
    }
    loop {
        arr.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Schema validation + report rendering (`drac report`, tier-1 smoke).
// ---------------------------------------------------------------------------

/// A schema-validated telemetry document.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// The emitting binary's name.
    pub binary: String,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Span name → nanoseconds.
    pub spans_ns: BTreeMap<String, u64>,
}

/// Parse and schema-validate a telemetry JSON document.
///
/// # Errors
///
/// A description of the first violation: parse failure, missing required
/// key ([`REQUIRED_KEYS`]), wrong schema identifier, a non-integer
/// counter/span value, or a counter/span whose stage prefix is not in
/// [`STAGES`].
pub fn validate_telemetry(src: &str) -> Result<TelemetryReport, String> {
    let doc = parse_json(src)?;
    let obj = doc.as_obj().ok_or("top level is not an object")?;
    for key in REQUIRED_KEYS {
        if !obj.contains_key(key) {
            return Err(format!("missing required key {key:?}"));
        }
    }
    let schema = obj["schema"]
        .as_str()
        .ok_or("\"schema\" is not a string")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let binary = obj["binary"]
        .as_str()
        .ok_or("\"binary\" is not a string")?
        .to_string();
    let read_map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
        let m = obj[key]
            .as_obj()
            .ok_or_else(|| format!("{key:?} is not an object"))?;
        m.iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("{key:?} entry {k:?} is not an unsigned integer"))
            })
            .collect()
    };
    let check_stages = |key: &str, m: &BTreeMap<String, u64>| -> Result<(), String> {
        for name in m.keys() {
            let stage = name.split('.').next().unwrap_or(name);
            if !STAGES.contains(&stage) {
                return Err(format!(
                    "{key:?} entry {name:?} uses unregistered stage {stage:?}"
                ));
            }
        }
        Ok(())
    };
    let counters = read_map("counters")?;
    let spans_ns = read_map("spans_ns")?;
    check_stages("counters", &counters)?;
    check_stages("spans_ns", &spans_ns)?;
    Ok(TelemetryReport {
        binary,
        counters,
        spans_ns,
    })
}

impl TelemetryReport {
    /// Human-readable rendering (the body of `drac report`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry — {}", self.binary);
        let width = self
            .counters
            .keys()
            .chain(self.spans_ns.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        let _ = writeln!(out, "counters:");
        if self.counters.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        for (k, v) in &self.counters {
            let _ = writeln!(out, "  {k:<width$}  {v}");
        }
        let _ = writeln!(out, "spans (wall-clock):");
        if self.spans_ns.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        for (k, v) in &self.spans_ns {
            let _ = writeln!(out, "  {k:<width$}  {:.3} ms", *v as f64 / 1e6);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_spans_accumulate() {
        let mut t = Telemetry::new();
        t.count("a.x", 2);
        t.count("a.x", 3);
        t.span_ns("s", 10);
        t.span_ns("s", 5);
        assert_eq!(t.counter("a.x"), 5);
        assert_eq!(t.span("s"), 15);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn merge_sums_both_kinds() {
        let mut a = Telemetry::new();
        a.count("c", 1);
        a.span_ns("s", 7);
        let mut b = Telemetry::new();
        b.count("c", 2);
        b.count("d", 4);
        b.span_ns("s", 3);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("d"), 4);
        assert_eq!(a.span("s"), 10);
    }

    #[test]
    fn clear_spans_keeps_counters() {
        let mut t = Telemetry::new();
        t.count("c", 9);
        t.span_ns("s", 9);
        t.clear_spans();
        assert_eq!(t.counter("c"), 9);
        assert!(t.spans().is_empty());
        t.set_counter("c", 0);
        assert_eq!(t.counter("c"), 0);
    }

    #[test]
    fn time_records_a_span() {
        let mut t = Telemetry::new();
        let v = t.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert!(t.spans().contains_key("work"));
    }

    #[test]
    fn json_roundtrips_through_validation() {
        let mut t = Telemetry::new();
        t.count("alloc.spilled_vregs", 42);
        t.count("sim.cycles", 123_456_789);
        t.span_ns("simulate", 5_000_000);
        let json = t.to_json("fig99");
        let rep = validate_telemetry(&json).expect("schema-valid");
        assert_eq!(rep.binary, "fig99");
        assert_eq!(rep.counters["alloc.spilled_vregs"], 42);
        assert_eq!(rep.counters["sim.cycles"], 123_456_789);
        assert_eq!(rep.spans_ns["simulate"], 5_000_000);
    }

    #[test]
    fn compact_json_is_one_line_and_roundtrips() {
        let mut t = Telemetry::new();
        t.count("serve.requests", 7);
        t.span_ns("serve.request", 1234);
        let compact = t.to_json_compact("serve");
        assert!(!compact.contains('\n'), "single-line frame");
        let rep = validate_telemetry(&compact).expect("schema-valid");
        assert_eq!(rep.binary, "serve");
        assert_eq!(rep.counters["serve.requests"], 7);
        assert_eq!(rep.spans_ns["serve.request"], 1234);
        // Identical document to the pretty form.
        assert_eq!(rep, validate_telemetry(&t.to_json("serve")).unwrap());
    }

    #[test]
    fn frames_are_pinned_byte_for_byte() {
        let mut t = Telemetry::new();
        t.count("alloc.spilled_vregs", 42);
        t.count("sim.\u{1}odd\"key", 7);
        t.span_ns("simulate", 5);
        assert_eq!(
            t.to_json("fig\"99"),
            "{\n  \"schema\": \"dra-telemetry-v1\",\n  \"binary\": \"fig\\\"99\",\n  \
             \"counters\": {\n    \"alloc.spilled_vregs\": 42,\n    \"sim.\\u0001odd\\\"key\": 7\n  },\n  \
             \"spans_ns\": {\n    \"simulate\": 5\n  }\n}\n"
        );
        assert_eq!(
            t.to_json_compact("serve"),
            "{\"schema\":\"dra-telemetry-v1\",\"binary\":\"serve\",\"counters\":\
             {\"alloc.spilled_vregs\":42,\"sim.\\u0001odd\\\"key\":7},\"spans_ns\":{\"simulate\":5}}"
        );
        let empty = Telemetry::new();
        assert_eq!(
            empty.to_json("empty"),
            "{\n  \"schema\": \"dra-telemetry-v1\",\n  \"binary\": \"empty\",\n  \
             \"counters\": {\n  },\n  \"spans_ns\": {\n  }\n}\n"
        );
        assert_eq!(
            empty.to_json_compact("empty"),
            "{\"schema\":\"dra-telemetry-v1\",\"binary\":\"empty\",\"counters\":{},\"spans_ns\":{}}"
        );
    }

    #[test]
    fn empty_registry_is_still_schema_valid() {
        let json = Telemetry::new().to_json("empty");
        let rep = validate_telemetry(&json).unwrap();
        assert!(rep.counters.is_empty());
        assert!(rep.spans_ns.is_empty());
    }

    #[test]
    fn validation_rejects_bad_documents() {
        assert!(validate_telemetry("not json").is_err());
        assert!(validate_telemetry("[1,2,3]").is_err());
        assert!(validate_telemetry("{}").unwrap_err().contains("schema"));
        let missing =
            "{\"schema\": \"dra-telemetry-v1\", \"binary\": \"x\", \"counters\": {}}";
        assert!(validate_telemetry(missing).unwrap_err().contains("spans_ns"));
        let wrong_schema =
            "{\"schema\": \"v0\", \"binary\": \"x\", \"counters\": {}, \"spans_ns\": {}}";
        assert!(validate_telemetry(wrong_schema).unwrap_err().contains("expected"));
        let float_counter = "{\"schema\": \"dra-telemetry-v1\", \"binary\": \"x\", \
             \"counters\": {\"c\": 1.5}, \"spans_ns\": {}}";
        assert!(validate_telemetry(float_counter)
            .unwrap_err()
            .contains("unsigned integer"));
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        assert_eq!(parse_json("null"), Ok(Json::Null));
        assert_eq!(parse_json(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse_json("-2.5e1"), Ok(Json::Num(-25.0)));
        assert_eq!(
            parse_json("\"a\\n\\\"b\\u0041\""),
            Ok(Json::Str("a\n\"bA".to_string()))
        );
        assert_eq!(
            parse_json("[1, [2], {}]"),
            Ok(Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0)]),
                Json::Obj(BTreeMap::new())
            ]))
        );
        let obj = parse_json("{\"k\": 7, \"s\": \"v\"}").unwrap();
        assert_eq!(obj.as_obj().unwrap()["k"].as_u64(), Some(7));
        assert_eq!(obj.as_obj().unwrap()["s"].as_str(), Some("v"));
        // Malformed inputs are rejected, not mangled.
        assert!(parse_json("{\"k\": }").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"open").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "01", "-01", "1.", "2.", "-.5", "1.e5", "-", ".5", "1e", "1e+", "+1", "--1", "1.5.2",
            "00",
        ] {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
            assert!(parse_json(&format!("[{bad}]")).is_err(), "[{bad}] must be rejected");
        }
        for (good, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e-1", -0.05),
            ("1E+2", 100.0),
            ("2e0", 2.0),
        ] {
            assert_eq!(parse_json(good), Ok(Json::Num(want)), "{good}");
        }
        // 2^64 is one past u64::MAX: a number, but not a u64.
        let big = parse_json("18446744073709551616").unwrap();
        assert_eq!(big.as_u64(), None);
        assert_eq!(parse_json("9007199254740992").unwrap().as_u64(), Some(1 << 53));
    }

    #[test]
    fn integers_above_2_pow_53_stay_exact() {
        // Up to 2^53 an integer is still a plain `Num`.
        for (text, value) in [
            ("9007199254740992", 9007199254740992.0),
            ("-9007199254740993", -9007199254740992.0),
        ] {
            assert_eq!(parse_json(text), Ok(Json::Num(value)), "{text}");
        }
        // Above it, where `f64` skips integers, the literal is kept exact.
        let odd = parse_json("9007199254740993").unwrap();
        assert_eq!(odd, Json::Int(9_007_199_254_740_993));
        assert_eq!(odd.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(odd.as_f64(), Some(9007199254740992.0));
        let max = parse_json("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        // One past `u64::MAX` is a number, but not a u64.
        let over = parse_json("18446744073709551616").unwrap();
        assert!(matches!(over, Json::Num(_)));
        assert_eq!(over.as_u64(), None);
        // A fraction or an exponent makes a rounded `Num`.
        for rounded in ["9007199254740993.5", "9007199254740993e0"] {
            assert!(matches!(parse_json(rounded), Ok(Json::Num(_))), "{rounded}");
        }
        // A telemetry frame carries such counters through unchanged.
        let frame = format!(
            "{{\"schema\": \"{SCHEMA}\", \"binary\": \"x\", \"counters\": \
             {{\"remap.evaluations\": 9007199254740993, \"remap.functions\": {}}}, \
             \"spans_ns\": {{}}}}",
            u64::MAX
        );
        let rep = validate_telemetry(&frame).unwrap();
        assert_eq!(rep.counters["remap.evaluations"], 9_007_199_254_740_993);
        assert_eq!(rep.counters["remap.functions"], u64::MAX);
        assert!(rep.render().contains("9007199254740993"));
    }

    #[test]
    fn json_nesting_is_capped() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(parse_json(&over).is_err());
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_json(&objs).unwrap_err().contains("nesting"));
    }

    #[test]
    fn strings_round_trip_through_escape_and_parse() {
        let control: String = (0u32..0x20).filter_map(char::from_u32).collect();
        for s in [
            "",
            "plain ascii",
            "é ü ß — 中文 😀 mixed with \"quotes\" and \\backslashes\\",
            "\n\t\r\u{8}\u{c}",
            control.as_str(),
            "trailing multi-byte 😀",
        ] {
            let mut w = JsonWriter::compact();
            w.str(s);
            let doc = w.finish();
            assert_eq!(parse_json(&doc), Ok(Json::Str(s.to_string())), "{doc:?}");
        }
        // Every short escape and `\u` escapes the writer never emits.
        assert_eq!(
            parse_json(r#""\"\\\/\b\f\n\r\t""#),
            Ok(Json::Str("\"\\/\u{8}\u{c}\n\r\t".to_string()))
        );
        assert_eq!(
            parse_json(r#""\u00e9\u4E2D é\u0000""#),
            Ok(Json::Str("é中 é\0".to_string()))
        );
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs_and_reject_the_rest() {
        // What `json.dumps` sends for text outside the BMP.
        assert_eq!(
            parse_json(r#""\ud83d\ude00 \uD834\uDD1E""#),
            Ok(Json::Str("😀 𝄞".to_string()))
        );
        for bad in [
            r#""\ud83d""#,        // high surrogate at the end
            r#""\ud83dx""#,       // high surrogate, then a plain char
            r#""\ud83d\u0041""#, // high surrogate, then a non-surrogate
            r#""\ud83d\ud83d""#, // two highs
            r#""\ude00""#,        // lone low surrogate
            r#""\ud83d\uZZZZ""#, // pair with bad hex
            r#""\u+041""#,        // sign is not a hex digit
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00e""#,         // three digits
            r#""\u00""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn writer_nests_and_formats_every_value_kind() {
        let mut w = JsonWriter::pretty();
        w.obj()
            .key("s")
            .str("a\"b")
            .key("n")
            .arr()
            .u64(1)
            .i64(-2)
            .f64(3.0)
            .f64(0.25)
            .f64(f64::NAN)
            .bool(true)
            .null()
            .raw("1.500000")
            .end()
            .key("e")
            .arr()
            .end()
            .end();
        assert_eq!(
            w.finish(),
            "{\n  \"s\": \"a\\\"b\",\n  \"n\": [\n    1,\n    -2,\n    3.0,\n    0.25,\n    null,\n    \
             true,\n    null,\n    1.500000\n  ],\n  \"e\": [\n  ]\n}\n"
        );
        let mut w = JsonWriter::compact();
        w.arr().obj().key("k").arr().end().end().str("").end();
        assert_eq!(w.finish(), r#"[{"k":[]},""]"#);
    }

    #[test]
    fn escaping_roundtrips_through_parser() {
        let mut t = Telemetry::new();
        t.count("checker.weird\"name\\with\nescapes", 1);
        let rep = validate_telemetry(&t.to_json("bin\"ary")).unwrap();
        assert_eq!(rep.binary, "bin\"ary");
        assert_eq!(rep.counters["checker.weird\"name\\with\nescapes"], 1);
    }

    #[test]
    fn validation_rejects_unregistered_stages() {
        let mut t = Telemetry::new();
        t.count("chekcer.violations", 1); // typo'd stage
        let err = validate_telemetry(&t.to_json("x")).unwrap_err();
        assert!(err.contains("unregistered stage"), "{err}");
        assert!(err.contains("chekcer"), "{err}");
        let mut ok = Telemetry::new();
        ok.count("checker.violations", 0);
        ok.span_ns("checker", 42);
        validate_telemetry(&ok.to_json("x")).expect("registered stage is valid");
    }

    #[test]
    fn report_renders_counters_and_spans() {
        let mut t = Telemetry::new();
        t.count("alloc.one", 11);
        t.span_ns("simulate", 2_500_000);
        let rep = validate_telemetry(&t.to_json("b")).unwrap();
        let text = rep.render();
        assert!(text.contains("telemetry — b"));
        assert!(text.contains("alloc.one"));
        assert!(text.contains("11"));
        assert!(text.contains("2.500 ms"));
    }

    #[test]
    fn write_results_creates_the_directory() {
        let dir = std::env::temp_dir().join(format!(
            "dra-telemetry-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Telemetry::new();
        t.count("cells", 1);
        let path = t.write_results(&dir, "unit").unwrap();
        assert!(path.ends_with("results/telemetry/unit.json"));
        let src = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate_telemetry(&src).unwrap().counters["cells"], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_token_trips_on_flag_and_deadline() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
        let expired = CancelToken::with_deadline(Some(Instant::now()));
        assert!(expired.is_cancelled());
        let distant =
            CancelToken::with_deadline(Some(Instant::now() + std::time::Duration::from_secs(3600)));
        assert!(!distant.is_cancelled());
    }

    #[test]
    fn stage_boundary_unwinds_with_cancel_payload_when_armed() {
        install_cancel_quiet_hook();
        let token = CancelToken::new();
        let caught = std::panic::catch_unwind(|| {
            let _armed = arm_cancel(&token);
            let mut t = Telemetry::new();
            t.time("alloc", || token.cancel());
            // Next boundary observes the tripped flag.
            t.time("verify", || unreachable!("stage must not run"))
        });
        let payload = caught.expect_err("cancellation unwinds");
        let cancel = payload
            .downcast_ref::<CancelUnwind>()
            .expect("payload is CancelUnwind");
        assert_eq!(cancel.stage, "verify");
        // The guard restored the slot: an unarmed thread never trips.
        let mut t = Telemetry::new();
        t.time("alloc", || ());
    }

    #[test]
    fn check_cancelled_is_a_noop_without_a_token() {
        check_cancelled("anywhere");
    }

    #[test]
    fn panic_stage_captures_the_innermost_span() {
        let caught = std::panic::catch_unwind(|| {
            let mut t = Telemetry::new();
            t.time("outer", || {
                let mut inner = Telemetry::new();
                inner.time("inner", || panic!("boom"))
            })
        });
        assert!(caught.is_err());
        assert_eq!(take_panic_stage().as_deref(), Some("inner"));
        // The slot is cleared by the take; the stack fully unwound.
        assert_eq!(take_panic_stage(), None);
        let mut t = Telemetry::new();
        t.time("calm", || ());
        assert_eq!(take_panic_stage(), None, "non-panicking spans record nothing");
    }
}
