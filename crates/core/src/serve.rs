//! # Resident allocation service (`drac serve`)
//!
//! A long-lived daemon that accepts compile jobs over a Unix or TCP
//! socket and dispatches them to a persistent pool of sharded workers,
//! all sharing one [`CompileSession`] — so the source cache and the
//! content-hash result cache survive *across* requests instead of being
//! rebuilt per invocation. The paper's pipelines are pure functions of
//! their input, which is what makes the cross-request cache sound: two
//! requests with the same content hash get byte-identical runs no matter
//! which worker, connection, or ordering served them.
//!
//! ## Wire protocol (`dra-serve-v1` / `dra-serve-v2`)
//!
//! Line-delimited JSON over the socket: one request per line, one
//! response line per request. Every request carries `schema`, a caller
//! chosen `id` (echoed on the response so concurrent clients can match
//! replies), and a `kind`:
//!
//! ```text
//! {"schema":"dra-serve-v1","id":"r1","kind":"compile","approach":"select","bench":"crc32"}
//! {"schema":"dra-serve-v2","id":"r2","kind":"compile","approach":"coalesce","source":"fn f { ... }","deadline_ms":250,"priority":"batch"}
//! {"schema":"dra-serve-v1","id":"r3","kind":"ping"}
//! {"schema":"dra-serve-v1","id":"r4","kind":"stats"}
//! {"schema":"dra-serve-v1","id":"r5","kind":"shutdown"}
//! ```
//!
//! `dra-serve-v2` is a backward-compatible extension: both schemas are
//! accepted on the same socket, absent v2 fields keep v1 semantics
//! (no deadline, `interactive` priority), and responses echo the
//! request's schema. The v2-only compile fields are `deadline_ms` (shed
//! the job with a retryable `deadline` error once that many milliseconds
//! have elapsed since admission — at dequeue, or cooperatively at the
//! next pipeline stage boundary mid-compile) and `priority`
//! (`"interactive"` / `"batch"`; under overload, batch is shed first and
//! interactive may use the queue's reserve headroom).
//!
//! Responses are `{"schema":…,"id":…,"ok":true,…}` or
//! `{"schema":…,"id":…,"ok":false,"error":{"kind":…,"retryable":…,"message":…}}`.
//! `retryable:true` marks load- or lifecycle-induced failures
//! (`overloaded`, `deadline`, `worker-lost`, `shutdown`) a client should
//! retry with backoff ([`BackoffPolicy`]); deterministic failures
//! (parse errors, panics, bad requests) are not retryable. Malformed
//! input never kills a connection silently and never reaches a worker:
//! bad JSON, unknown fields, unknown benchmarks, oversized lines and
//! truncated trailing lines all produce a structured error response.
//! Worker panics are contained per request by
//! [`run_isolated_cancellable`] — the same containment the batch driver
//! uses — and surface as an `"error":{"kind":"panic",…}` response with
//! stage attribution.
//!
//! ## Sharding, admission control, and supervision
//!
//! Jobs are routed to workers by the *result-cache key* (`shard =
//! key[0] % workers`), so duplicate requests land on the same worker and
//! hit its just-inserted cache entry instead of racing a recompute on
//! another shard. Distinct keys spread uniformly (FNV-1a output).
//!
//! Each shard's queue is **bounded** ([`ServeConfig::queue_cap`]): at
//! admission, a batch-priority request finding the queue full gets an
//! immediate retryable `overloaded` response, while interactive requests
//! may fill a 2× reserve before they too are shed — load sheds the
//! cheap-to-retry traffic first. The accept loop doubles as a
//! **supervisor**: it reaps finished connection threads (counting
//! panicked ones), detects a dead shard worker (a panic that escaped the
//! per-request isolation), answers the worker's lost in-flight request
//! with a retryable `worker-lost` error, and restarts a fresh worker on
//! the *same* shard state — queue and caches survive the crash
//! (`serve.worker_restarts`).
//!
//! ## Telemetry
//!
//! The daemon keeps per-shard [`Telemetry`] (merged in shard order, so
//! aggregate counters are schedule-invariant for a fixed request set)
//! plus connection-level counters (`serve.connections`,
//! `serve.bad_requests`, …). Overload behavior is its own census:
//! `serve.overload.admitted` / `.shed` / `.shed_interactive` /
//! `.peak_depth`, `serve.deadline.with_deadline` / `.shed_queued` /
//! `.cancelled`, plus `serve.worker_restarts`, `serve.worker_lost_requests`
//! and `serve.conn_panics`. A `stats` request returns the merged frame
//! inline; shutdown writes it to `results/telemetry/serve.json` when a
//! telemetry root is configured.

use crate::batch::run_isolated_cancellable;
use crate::faults::{ServeFaults, SplitMix64};
use crate::lowend::{Approach, LowEndRun, LowEndSetup};
use crate::session::{result_key, CompileSession};
use crate::telemetry::{parse_json, CancelToken, Json, JsonWriter, Telemetry, TelemetryReport};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Protocol identifier; every v1 request and response carries it.
pub const SERVE_SCHEMA: &str = "dra-serve-v1";

/// The extended protocol revision: a superset of v1 whose `compile`
/// requests may carry `deadline_ms` and `priority`.
pub const SERVE_SCHEMA_V2: &str = "dra-serve-v2";

/// Default cap on a single request line (bytes, newline included).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Longest request id the server echoes back.
pub const MAX_ID_BYTES: usize = 256;

/// Default per-shard queue bound ([`ServeConfig::queue_cap`]).
pub const DEFAULT_QUEUE_CAP: usize = 256;

/// Which protocol revision a request spoke; responses echo it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// `dra-serve-v1`.
    V1,
    /// `dra-serve-v2`.
    V2,
}

impl Wire {
    /// The schema string for this revision.
    pub fn schema(self) -> &'static str {
        match self {
            Wire::V1 => SERVE_SCHEMA,
            Wire::V2 => SERVE_SCHEMA_V2,
        }
    }
}

/// Request priority under overload (v2; v1 requests are `Interactive`).
///
/// `Batch` is shed first: a full queue turns batch admissions into
/// immediate retryable `overloaded` errors while interactive requests
/// may still use the queue's reserve headroom. Batch traffic is assumed
/// to come from harnesses that retry with backoff; interactive traffic
/// from callers a human is waiting on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Throughput traffic; shed first under overload.
    Batch,
    /// Latency-sensitive traffic (the default, and all of v1).
    #[default]
    Interactive,
}

impl Priority {
    /// Parse the wire label.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// The wire label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// Whether an error `kind` marks a load- or lifecycle-induced failure
/// the client should retry (with backoff): the same request may well
/// succeed once pressure passes or the worker is restarted.
/// Deterministic failures (bad input, pipeline errors, panics) are not
/// retryable — retrying them only adds load.
pub fn retryable_kind(kind: &str) -> bool {
    matches!(kind, "overloaded" | "deadline" | "worker-lost" | "shutdown")
}

// ---------------------------------------------------------------------------
// Addresses, listeners, streams.
// ---------------------------------------------------------------------------

/// Where the daemon listens (or a client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP `host:port` (use port 0 to let the OS pick; the bound
    /// address is reported by [`ServerHandle::addr`]).
    Tcp(String),
}

impl ServeAddr {
    /// Parse `unix:/path` or `tcp:host:port` (a bare value with no
    /// scheme is treated as a Unix path).
    pub fn parse(s: &str) -> ServeAddr {
        if let Some(rest) = s.strip_prefix("tcp:") {
            ServeAddr::Tcp(rest.to_string())
        } else if let Some(rest) = s.strip_prefix("unix:") {
            ServeAddr::Unix(PathBuf::from(rest))
        } else {
            ServeAddr::Unix(PathBuf::from(s))
        }
    }
}

impl fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(addr: &ServeAddr) -> io::Result<Listener> {
        match addr {
            ServeAddr::Unix(path) => Ok(Listener::Unix(UnixListener::bind(path)?)),
            ServeAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a.as_str())?)),
        }
    }

    /// The concretely bound address (resolves TCP port 0).
    fn bound_addr(&self, requested: &ServeAddr) -> ServeAddr {
        match self {
            Listener::Unix(_) => requested.clone(),
            Listener::Tcp(l) => match l.local_addr() {
                Ok(a) => ServeAddr::Tcp(a.to_string()),
                Err(_) => requested.clone(),
            },
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // One-line request/response traffic: Nagle + delayed ACK
                // would add ~40 ms per exchange.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }
}

/// A connected socket of either flavour.
pub enum Stream {
    /// Unix-domain.
    Unix(UnixStream),
    /// TCP.
    Tcp(TcpStream),
}

impl Stream {
    fn connect(addr: &ServeAddr) -> io::Result<Stream> {
        match addr {
            ServeAddr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            ServeAddr::Tcp(a) => {
                let s = TcpStream::connect(a.as_str())?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(d),
            Stream::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded line reader.
// ---------------------------------------------------------------------------

/// What [`LineReader::next_line`] yielded.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line (newline stripped, `\r` trimmed).
    Line(String),
    /// The read timed out with no complete line; retained partial input
    /// stays buffered for the next call.
    Timeout,
    /// Peer closed the socket. `partial` is true when unterminated bytes
    /// were left in the buffer — a truncated request.
    Eof {
        /// Whether a partial line was discarded.
        partial: bool,
    },
    /// The current line exceeded the configured byte cap, whether or not
    /// its newline had arrived.
    Oversized,
}

/// A newline-framed reader with a hard per-line byte cap, so a client
/// streaming an endless unterminated line cannot balloon server memory.
pub struct LineReader {
    stream: Stream,
    buf: Vec<u8>,
    max_line: usize,
}

impl LineReader {
    /// Wrap `stream`; lines longer than `max_line` bytes are rejected.
    pub fn new(stream: Stream, max_line: usize) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            max_line: max_line.max(64),
        }
    }

    /// Pull the next event. `Timeout` only occurs when the underlying
    /// stream has a read timeout configured.
    pub fn next_line(&mut self) -> io::Result<LineEvent> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                if pos > self.max_line {
                    self.buf.clear();
                    return Ok(LineEvent::Oversized);
                }
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(LineEvent::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.buf.len() > self.max_line {
                self.buf.clear();
                return Ok(LineEvent::Oversized);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    let partial = !self.buf.is_empty();
                    self.buf.clear();
                    return Ok(LineEvent::Eof { partial });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(LineEvent::Timeout)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol: requests.
// ---------------------------------------------------------------------------

/// A compile job's payload: a builtin benchmark by name, or inline
/// program text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSpec {
    /// One of [`dra_workloads::benchmark_names`].
    Bench(String),
    /// Program text for the parser.
    Source(String),
}

/// A validated `dra-serve-v1` / `dra-serve-v2` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compile and simulate.
    Compile {
        /// Echoed on the response.
        id: String,
        /// Allocation approach.
        approach: Approach,
        /// What to compile.
        spec: JobSpec,
        /// Shed the job once this many milliseconds have passed since
        /// admission (v2; `None` = no deadline, the v1 semantics).
        deadline_ms: Option<u64>,
        /// Overload priority (v2; v1 requests are `Interactive`).
        priority: Priority,
    },
    /// Liveness probe.
    Ping {
        /// Echoed on the response.
        id: String,
    },
    /// Merged telemetry snapshot.
    Stats {
        /// Echoed on the response.
        id: String,
    },
    /// Graceful daemon shutdown.
    Shutdown {
        /// Echoed on the response.
        id: String,
    },
}

/// A protocol-level rejection: carried back as a structured error
/// response instead of ever reaching a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The request id when one could be recovered (error responses echo
    /// it so pipelined clients can re-associate).
    pub id: Option<String>,
    /// Machine-readable kind: `bad-json`, `bad-request`, `oversized`,
    /// `truncated`, or a [`crate::lowend::PipelineError::kind`].
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    fn new(id: Option<&str>, kind: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            id: id.map(str::to_string),
            kind,
            message: message.into(),
        }
    }
}

/// Parse and validate one request line, returning the request plus the
/// protocol revision it spoke (responses echo it). Unknown fields are
/// rejected *per revision* — `deadline_ms` / `priority` on a v1 line are
/// a structured `bad-request`, not silent misinterpretation, and the
/// same goes for any future field on either revision.
///
/// # Errors
///
/// [`WireError`] with kind `bad-json` (not JSON / not an object) or
/// `bad-request` (schema, id, kind, or field violations).
pub fn parse_request(line: &str) -> Result<(Request, Wire), WireError> {
    let doc = parse_json(line).map_err(|e| WireError::new(None, "bad-json", e))?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| WireError::new(None, "bad-json", "request is not a JSON object"))?;

    // Recover the id first so every later rejection can echo it.
    let id = match obj.get("id") {
        Some(Json::Str(s)) if !s.is_empty() && s.len() <= MAX_ID_BYTES => s.clone(),
        Some(_) => {
            return Err(WireError::new(
                None,
                "bad-request",
                format!("\"id\" must be a non-empty string of at most {MAX_ID_BYTES} bytes"),
            ))
        }
        None => return Err(WireError::new(None, "bad-request", "missing \"id\"")),
    };

    let wire = match obj.get("schema").and_then(Json::as_str) {
        Some(SERVE_SCHEMA) => Wire::V1,
        Some(SERVE_SCHEMA_V2) => Wire::V2,
        Some(other) => {
            return Err(WireError::new(
                Some(&id),
                "bad-request",
                format!(
                    "unsupported schema {other:?} (want {SERVE_SCHEMA:?} or {SERVE_SCHEMA_V2:?})"
                ),
            ))
        }
        None => {
            return Err(WireError::new(
                Some(&id),
                "bad-request",
                format!("missing \"schema\" (want {SERVE_SCHEMA:?} or {SERVE_SCHEMA_V2:?})"),
            ))
        }
    };

    let kind = match obj.get("kind").and_then(Json::as_str) {
        Some(k) => k,
        None => return Err(WireError::new(Some(&id), "bad-request", "missing \"kind\"")),
    };

    let allowed: &[&str] = match (kind, wire) {
        ("compile", Wire::V1) => &["schema", "id", "kind", "approach", "bench", "source"],
        ("compile", Wire::V2) => &[
            "schema",
            "id",
            "kind",
            "approach",
            "bench",
            "source",
            "deadline_ms",
            "priority",
        ],
        ("ping" | "stats" | "shutdown", _) => &["schema", "id", "kind"],
        (other, _) => {
            return Err(WireError::new(
                Some(&id),
                "bad-request",
                format!("unknown kind {other:?}"),
            ))
        }
    };
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(WireError::new(
                Some(&id),
                "bad-request",
                format!("unknown field {key:?} for kind {kind:?}"),
            ));
        }
    }

    match kind {
        "ping" => Ok((Request::Ping { id }, wire)),
        "stats" => Ok((Request::Stats { id }, wire)),
        "shutdown" => Ok((Request::Shutdown { id }, wire)),
        _ => {
            let approach = match obj.get("approach").and_then(Json::as_str) {
                Some(s) => Approach::parse(s).ok_or_else(|| {
                    WireError::new(Some(&id), "bad-request", format!("unknown approach {s:?}"))
                })?,
                None => {
                    return Err(WireError::new(
                        Some(&id),
                        "bad-request",
                        "compile requires \"approach\"",
                    ))
                }
            };
            let bench = obj.get("bench");
            let source = obj.get("source");
            let spec = match (bench, source) {
                (Some(Json::Str(b)), None) => JobSpec::Bench(b.clone()),
                (None, Some(Json::Str(s))) => JobSpec::Source(s.clone()),
                (Some(_), Some(_)) => {
                    return Err(WireError::new(
                        Some(&id),
                        "bad-request",
                        "compile takes exactly one of \"bench\" or \"source\", not both",
                    ))
                }
                _ => {
                    return Err(WireError::new(
                        Some(&id),
                        "bad-request",
                        "compile requires a string \"bench\" or \"source\"",
                    ))
                }
            };
            let deadline_ms = match obj.get("deadline_ms") {
                None => None,
                Some(v) => match v.as_u64() {
                    Some(ms) => Some(ms),
                    None => {
                        return Err(WireError::new(
                            Some(&id),
                            "bad-request",
                            "\"deadline_ms\" must be an unsigned integer",
                        ))
                    }
                },
            };
            let priority = match obj.get("priority") {
                None => Priority::default(),
                Some(Json::Str(s)) => Priority::parse(s).ok_or_else(|| {
                    WireError::new(
                        Some(&id),
                        "bad-request",
                        format!("unknown priority {s:?} (want \"interactive\" or \"batch\")"),
                    )
                })?,
                Some(_) => {
                    return Err(WireError::new(
                        Some(&id),
                        "bad-request",
                        "\"priority\" must be a string",
                    ))
                }
            };
            Ok((
                Request::Compile {
                    id,
                    approach,
                    spec,
                    deadline_ms,
                    priority,
                },
                wire,
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol: responses.
// ---------------------------------------------------------------------------

/// Render the deterministic result object for a run. Field order is
/// fixed and only schedule-invariant quantities appear — no wall-clock,
/// no search-work counters — so concurrent and sequential service of the
/// same job produce *byte-identical* fragments (pinned by test). `drac
/// compile|run --emit json` prints the same object.
pub fn result_json(run: &LowEndRun) -> String {
    let mut w = JsonWriter::compact();
    write_result(&mut w, run);
    w.finish()
}

fn write_result(w: &mut JsonWriter, run: &LowEndRun) {
    let degraded = run.remap.iter().filter(|s| s.degraded).count();
    w.obj().key("approach").str(run.approach.label());
    for (k, v) in [
        ("total_insts", run.total_insts as u64),
        ("spill_insts", run.spill_insts as u64),
        ("set_last_regs", run.set_last_regs as u64),
        ("code_bits", run.code_bits),
        ("cycles", run.cycles),
        ("dynamic_spills", run.dynamic_spills),
        ("dynamic_set_last_regs", run.dynamic_set_last_regs),
        ("icache_misses", run.icache_misses),
        ("dcache_misses", run.dcache_misses),
        ("degraded_funcs", degraded as u64),
    ] {
        w.key(k).u64(v);
    }
    match run.ret_value {
        Some(v) => w.key("ret").i64(v),
        None => w.key("ret").null(),
    };
    w.end();
}

/// A response line's opening `{"schema":…,"id":…,"ok":…`; the caller
/// adds its fields and closes the object.
fn response_head(wire: Wire, id: Option<&str>, ok: bool) -> JsonWriter {
    let mut w = JsonWriter::compact();
    w.obj().key("schema").str(wire.schema());
    match id {
        Some(id) => w.key("id").str(id),
        None => w.key("id").null(),
    };
    w.key("ok").bool(ok);
    w
}

/// An `ok:false` response line (no trailing newline). `wire` echoes the
/// request's protocol revision (errors for lines too broken to recover a
/// schema from use [`Wire::V1`], the most conservative framing); the
/// `retryable` flag is derived from `kind` ([`retryable_kind`]).
pub fn response_error(wire: Wire, id: Option<&str>, kind: &str, message: &str) -> String {
    let mut w = response_head(wire, id, false);
    w.key("error").obj().key("kind").str(kind);
    w.key("retryable").bool(retryable_kind(kind));
    w.key("message").str(message).end().end();
    w.finish()
}

/// A successful compile response line.
pub fn response_run(wire: Wire, id: &str, run: &LowEndRun, cached: bool, micros: u64) -> String {
    let mut w = response_head(wire, Some(id), true);
    w.key("kind").str("compile").key("cached").bool(cached);
    w.key("micros").u64(micros).key("result");
    write_result(&mut w, run);
    w.end();
    w.finish()
}

fn response_plain(wire: Wire, id: &str, kind: &str) -> String {
    let mut w = response_head(wire, Some(id), true);
    w.key("kind").str(kind).end();
    w.finish()
}

/// A `stats` response embedding the merged telemetry frame.
pub fn response_stats(wire: Wire, id: &str, telemetry: &Telemetry) -> String {
    let mut w = response_head(wire, Some(id), true);
    w.key("kind").str("stats");
    w.key("stats").raw(&telemetry.to_json_compact("serve")).end();
    w.finish()
}

/// A parsed response line, as seen by clients.
#[derive(Clone, Debug)]
pub struct Response {
    /// The raw line, verbatim (for byte-level comparisons).
    pub raw: String,
    /// The echoed request id (None on early protocol errors).
    pub id: Option<String>,
    /// Success flag.
    pub ok: bool,
    /// Response kind (`compile`, `pong`, `stats`, `bye`; None on
    /// errors).
    pub kind: Option<String>,
    /// Whether a compile was served from the result cache.
    pub cached: bool,
    /// Service time in microseconds (compile responses).
    pub micros: u64,
    /// The result object (compile responses).
    pub result: Option<std::collections::BTreeMap<String, Json>>,
    /// `(kind, message)` on failures.
    pub error: Option<(String, String)>,
    /// Whether the error is worth retrying with backoff (false for `ok`
    /// responses and for v1 servers that never emit the flag).
    pub retryable: bool,
    /// The embedded telemetry frame (stats responses).
    pub stats: Option<TelemetryReport>,
}

impl Response {
    /// Parse one response line (either protocol revision).
    ///
    /// # Errors
    ///
    /// A description when the line is not a `dra-serve-v1` /
    /// `dra-serve-v2` response object.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = parse_json(line)?;
        let obj = doc.as_obj().ok_or("response is not a JSON object")?;
        match obj.get("schema").and_then(Json::as_str) {
            Some(SERVE_SCHEMA) | Some(SERVE_SCHEMA_V2) => {}
            other => return Err(format!("bad response schema {other:?}")),
        }
        let id = obj.get("id").and_then(Json::as_str).map(str::to_string);
        let ok = matches!(obj.get("ok"), Some(Json::Bool(true)));
        let kind = obj.get("kind").and_then(Json::as_str).map(str::to_string);
        let cached = matches!(obj.get("cached"), Some(Json::Bool(true)));
        let micros = obj.get("micros").and_then(Json::as_u64).unwrap_or(0);
        let result = obj.get("result").and_then(Json::as_obj).cloned();
        let retryable = obj
            .get("error")
            .and_then(Json::as_obj)
            .is_some_and(|e| matches!(e.get("retryable"), Some(Json::Bool(true))));
        let error = obj.get("error").and_then(Json::as_obj).map(|e| {
            (
                e.get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                e.get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        });
        let stats = obj.get("stats").and_then(Json::as_obj).map(|s| {
            let grab = |key: &str| {
                s.get(key)
                    .and_then(Json::as_obj)
                    .map(|m| {
                        m.iter()
                            .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                            .collect()
                    })
                    .unwrap_or_default()
            };
            TelemetryReport {
                binary: s
                    .get("binary")
                    .and_then(Json::as_str)
                    .unwrap_or("serve")
                    .to_string(),
                counters: grab("counters"),
                spans_ns: grab("spans_ns"),
            }
        });
        Ok(Response {
            raw: line.to_string(),
            id,
            ok,
            kind,
            cached,
            micros,
            result,
            error,
            retryable,
            stats,
        })
    }

    /// The verbatim `"result":{…}` fragment of the raw line, for
    /// byte-identical comparisons across servers and schedules. The
    /// result object is flat (numbers and null only), so scanning to the
    /// first closing brace is exact.
    pub fn result_fragment(&self) -> Option<&str> {
        let start = self.raw.find("\"result\":{")? + "\"result\":".len();
        let end = self.raw[start..].find('}')? + start + 1;
        Some(&self.raw[start..end])
    }
}

// ---------------------------------------------------------------------------
// Request encoder (shared by the client, tests and benchmarks).
// ---------------------------------------------------------------------------

impl Request {
    /// The request line [`parse_request`] reads back as `(self, wire)`.
    /// `deadline_ms` and a non-default `priority` are written only when
    /// set; both are v2 fields, so a V1 line carrying them is rejected by
    /// the parser rather than silently narrowed.
    pub fn to_line(&self, wire: Wire) -> String {
        let (id, kind) = match self {
            Request::Compile { id, .. } => (id, "compile"),
            Request::Ping { id } => (id, "ping"),
            Request::Stats { id } => (id, "stats"),
            Request::Shutdown { id } => (id, "shutdown"),
        };
        let mut w = JsonWriter::compact();
        w.obj().key("schema").str(wire.schema());
        w.key("id").str(id).key("kind").str(kind);
        if let Request::Compile { approach, spec, deadline_ms, priority, .. } = self {
            w.key("approach").str(approach.label());
            match spec {
                JobSpec::Bench(name) => w.key("bench").str(name),
                JobSpec::Source(text) => w.key("source").str(text),
            };
            if let Some(ms) = deadline_ms {
                w.key("deadline_ms").u64(*ms);
            }
            if *priority != Priority::default() {
                w.key("priority").str(priority.label());
            }
        }
        w.end();
        w.finish()
    }
}

fn compile_request(id: &str, approach: Approach, spec: JobSpec) -> Request {
    Request::Compile {
        id: id.to_string(),
        approach,
        spec,
        deadline_ms: None,
        priority: Priority::default(),
    }
}

/// Build a `dra-serve-v1` benchmark compile request line.
pub fn request_compile_bench(id: &str, bench: &str, approach: Approach) -> String {
    compile_request(id, approach, JobSpec::Bench(bench.to_string())).to_line(Wire::V1)
}

/// Build a `dra-serve-v1` source-text compile request line (text is
/// JSON-escaped, so embedded newlines survive the line framing).
pub fn request_compile_source(id: &str, source: &str, approach: Approach) -> String {
    compile_request(id, approach, JobSpec::Source(source.to_string())).to_line(Wire::V1)
}

/// Build a `dra-serve-v1` `ping` / `stats` / `shutdown` request line.
///
/// # Panics
///
/// On any other `kind`.
pub fn request_plain(id: &str, kind: &str) -> String {
    let id = id.to_string();
    let request = match kind {
        "ping" => Request::Ping { id },
        "stats" => Request::Stats { id },
        "shutdown" => Request::Shutdown { id },
        other => panic!("{other:?} is not a ping, stats or shutdown request"),
    };
    request.to_line(Wire::V1)
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address.
    pub addr: ServeAddr,
    /// Worker pool size; 0 means one per available core.
    pub workers: usize,
    /// Pipeline setup shared by every request, including the per-request
    /// panic re-attempts (`cell_retries`) and the session's cache bounds.
    pub setup: LowEndSetup,
    /// Per-line byte cap.
    pub max_line_bytes: usize,
    /// Per-shard queue bound: batch-priority admissions are shed with a
    /// retryable `overloaded` error once a shard holds this many queued
    /// jobs; interactive admissions may fill a 2× reserve before they
    /// are shed too. `0` disables the bound (the pre-overload-control
    /// behavior; not recommended for anything long-lived).
    pub queue_cap: usize,
    /// When set, shutdown writes `results/telemetry/serve.json` under
    /// this root.
    pub telemetry_root: Option<PathBuf>,
    /// Fault-injection hooks keyed by request id (tests and the serve
    /// chaos campaign; empty in production).
    pub faults: ServeFaults,
    /// The gate stalled workers ([`ServeFaults::stall_request_ids`])
    /// poll; a test flips it to `true` to release them. Shared so the
    /// harness keeps a handle after the config moves into the server.
    pub stall_gate: Arc<AtomicBool>,
}

impl ServeConfig {
    /// Defaults: single-threaded remap inside each worker (the pool is
    /// the parallelism), one retry, 1 MiB lines, bounded queues
    /// ([`DEFAULT_QUEUE_CAP`] per shard).
    pub fn new(addr: ServeAddr) -> ServeConfig {
        let setup = LowEndSetup {
            remap_threads: 1,
            ..LowEndSetup::default()
        };
        ServeConfig {
            addr,
            workers: 0,
            setup,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            queue_cap: DEFAULT_QUEUE_CAP,
            telemetry_root: None,
            faults: ServeFaults::default(),
            stall_gate: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// A serialized writer around one connection's outbound half: workers
/// and the connection thread interleave whole-line writes through it.
struct ConnWriter {
    stream: Mutex<Stream>,
}

impl ConnWriter {
    fn new(stream: Stream) -> ConnWriter {
        ConnWriter {
            stream: Mutex::new(stream),
        }
    }

    /// Write `line` + newline; errors are swallowed (the peer may have
    /// hung up without collecting its responses — that must not unwind a
    /// worker).
    fn send(&self, line: &str) {
        if let Ok(mut s) = self.stream.lock() {
            let _ = s.write_all(line.as_bytes());
            let _ = s.write_all(b"\n");
            let _ = s.flush();
        }
    }
}

struct Job {
    id: String,
    approach: Approach,
    spec: JobSpec,
    reply: Arc<ConnWriter>,
    wire: Wire,
    priority: Priority,
    /// Absolute shed time, computed at admission from `deadline_ms`.
    deadline: Option<Instant>,
    /// The original relative deadline, for error messages.
    deadline_ms: Option<u64>,
}

/// What a shard's queue said to an admission attempt.
enum Admit {
    /// Enqueued; the payload is the queue depth right after the push
    /// (both lanes), for the peak-depth census.
    Queued(usize),
    /// Full for this priority — shed the job back to the caller.
    Overloaded(Job),
    /// The queue is closed (shutdown drain).
    Closed(Job),
}

#[derive(Default)]
struct QueueInner {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
    closed: bool,
}

impl QueueInner {
    fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

/// A bounded, two-lane (interactive-first) MPMC job queue; one per shard.
///
/// Replaces the unbounded `mpsc` channel: admission is decided *here*,
/// under the same lock the workers pop under, so "full" can never race
/// itself into unbounded growth. `cap` bounds batch admissions; the
/// interactive lane may grow to `2 * cap` (reserve headroom) before it
/// too sheds. `cap == 0` means unbounded.
struct ShardQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

impl ShardQueue {
    fn new(cap: usize) -> ShardQueue {
        ShardQueue {
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Lock the lanes, recovering from poison: jobs are moved in and out
    /// whole, so the deques are structurally valid at every panic point.
    fn inner(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit or shed `job` (never blocks).
    fn try_push(&self, job: Job) -> Admit {
        let mut q = self.inner();
        if q.closed {
            return Admit::Closed(job);
        }
        let limit = match job.priority {
            _ if self.cap == 0 => usize::MAX,
            Priority::Batch => self.cap,
            Priority::Interactive => self.cap.saturating_mul(2),
        };
        if q.len() >= limit {
            return Admit::Overloaded(job);
        }
        match job.priority {
            Priority::Interactive => q.interactive.push_back(job),
            Priority::Batch => q.batch.push_back(job),
        }
        let depth = q.len();
        drop(q);
        self.ready.notify_one();
        Admit::Queued(depth)
    }

    /// Pop the next job (interactive lane first), blocking while empty.
    /// Returns `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Job> {
        let mut q = self.inner();
        loop {
            if let Some(job) = q.interactive.pop_front().or_else(|| q.batch.pop_front()) {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self
                .ready
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stop admissions and wake every blocked worker; queued jobs still
    /// drain.
    fn close(&self) {
        self.inner().closed = true;
        self.ready.notify_all();
    }
}

/// The request a worker is processing right now — enough to answer it if
/// the worker dies mid-flight (supervision's exactly-one-response duty).
struct InflightTag {
    id: String,
    wire: Wire,
    reply: Arc<ConnWriter>,
}

/// Everything that must survive a worker crash: the queue and the
/// in-flight marker live *outside* the worker thread, so a restarted
/// worker resumes the same shard (and the shared session keeps its
/// caches — a crash costs one request, never the warm state).
struct ShardState {
    queue: ShardQueue,
    inflight: Mutex<Option<InflightTag>>,
    telemetry: Arc<Mutex<Telemetry>>,
}

impl ShardState {
    fn take_inflight(&self) -> Option<InflightTag> {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    fn set_inflight(&self, tag: Option<InflightTag>) {
        *self
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = tag;
    }
}

/// Everything a connection thread needs, cloned per accept.
struct ConnCtx {
    running: Arc<AtomicBool>,
    base: Arc<Mutex<Telemetry>>,
    shards: Arc<Vec<Arc<ShardState>>>,
    session: Arc<CompileSession>,
    max_line_bytes: usize,
    workers: u64,
    /// High-water mark of any single shard's queue depth.
    peak_depth: Arc<AtomicU64>,
}

impl ConnCtx {
    fn clone_for_conn(&self) -> ConnCtx {
        ConnCtx {
            running: Arc::clone(&self.running),
            base: Arc::clone(&self.base),
            shards: Arc::clone(&self.shards),
            session: Arc::clone(&self.session),
            max_line_bytes: self.max_line_bytes,
            workers: self.workers,
            peak_depth: Arc::clone(&self.peak_depth),
        }
    }

    fn count(&self, name: &str, delta: u64) {
        if let Ok(mut t) = self.base.lock() {
            t.count(name, delta);
        }
    }

    /// Merge base + shards (in shard order) + session cache counters
    /// into one frame.
    fn snapshot(&self) -> Telemetry {
        let mut out = self
            .base
            .lock()
            .map(|t| t.clone())
            .unwrap_or_else(|_| Telemetry::new());
        for shard in self.shards.iter() {
            if let Ok(t) = shard.telemetry.lock() {
                out.merge(&t);
            }
        }
        self.session.record_counters(&mut out);
        out.set_counter("serve.workers", self.workers);
        out.set_counter(
            "serve.overload.peak_depth",
            self.peak_depth.load(Ordering::Relaxed),
        );
        out
    }
}

/// Handle to a running daemon.
pub struct ServerHandle {
    addr: ServeAddr,
    running: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<Telemetry>>,
}

impl ServerHandle {
    /// The concretely bound address (TCP port 0 resolved).
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Ask the daemon to stop accepting and drain; returns immediately.
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::SeqCst);
    }

    /// Wait for the daemon to finish and collect its final merged
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Any I/O error that aborted the accept loop.
    pub fn join(self) -> io::Result<Telemetry> {
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("serve thread panicked")),
        }
    }
}

/// Bind and start the daemon. Binding happens synchronously, so a
/// returned handle means the socket is live and [`ServerHandle::addr`]
/// is connectable.
///
/// # Errors
///
/// Bind failures (address in use, bad path, …).
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = Listener::bind(&config.addr)?;
    let addr = listener.bound_addr(&config.addr);
    listener.set_nonblocking(true)?;
    let running = Arc::new(AtomicBool::new(true));
    let thread = {
        let running = Arc::clone(&running);
        thread::spawn(move || run_server(listener, config, running))
    };
    Ok(ServerHandle {
        addr,
        running,
        thread,
    })
}

fn resolved_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Spawn one shard worker thread on (possibly pre-existing) shard state.
fn spawn_worker(
    shard: Arc<ShardState>,
    session: Arc<CompileSession>,
    faults: Arc<ServeFaults>,
    stall_gate: Arc<AtomicBool>,
    running: Arc<AtomicBool>,
) -> JoinHandle<()> {
    thread::spawn(move || worker_loop(&shard, &session, &faults, &stall_gate, &running))
}

/// Join every finished connection thread (freeing its handle) and count
/// the ones that panicked. A plain `retain(|h| !h.is_finished())` — the
/// previous implementation — leaks the `JoinHandle` result, so a
/// panicked connection thread was indistinguishable from a clean close.
fn reap_connections(handles: &mut Vec<JoinHandle<()>>, ctx: &ConnCtx) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let h = handles.swap_remove(i);
            if h.join().is_err() {
                ctx.count("serve.conn_panics", 1);
            }
        } else {
            i += 1;
        }
    }
}

fn run_server(
    listener: Listener,
    config: ServeConfig,
    running: Arc<AtomicBool>,
) -> io::Result<Telemetry> {
    crate::telemetry::install_cancel_quiet_hook();
    let workers = resolved_workers(config.workers);
    let session = Arc::new(CompileSession::new(config.setup.clone()));
    let faults = Arc::new(config.faults.clone());
    let stall_gate = Arc::clone(&config.stall_gate);

    let shards: Vec<Arc<ShardState>> = (0..workers)
        .map(|_| {
            Arc::new(ShardState {
                queue: ShardQueue::new(config.queue_cap),
                inflight: Mutex::new(None),
                telemetry: Arc::new(Mutex::new(Telemetry::new())),
            })
        })
        .collect();
    let mut worker_handles: Vec<JoinHandle<()>> = shards
        .iter()
        .map(|shard| {
            spawn_worker(
                Arc::clone(shard),
                Arc::clone(&session),
                Arc::clone(&faults),
                Arc::clone(&stall_gate),
                Arc::clone(&running),
            )
        })
        .collect();

    let ctx = ConnCtx {
        running: Arc::clone(&running),
        base: Arc::new(Mutex::new(Telemetry::new())),
        shards: Arc::new(shards),
        session,
        max_line_bytes: config.max_line_bytes,
        workers: workers as u64,
        peak_depth: Arc::new(AtomicU64::new(0)),
    };
    // Seed the overload/supervision census at zero so every key is
    // present even in a calm run (consumers diff telemetry files; an
    // absent key reads as a schema change rather than a zero).
    for key in [
        "serve.overload.admitted",
        "serve.overload.shed",
        "serve.overload.shed_interactive",
        "serve.deadline.with_deadline",
        "serve.deadline.shed_queued",
        "serve.deadline.cancelled",
        "serve.worker_restarts",
        "serve.worker_lost_requests",
        "serve.conn_panics",
    ] {
        ctx.count(key, 0);
    }

    let mut conn_handles: Vec<JoinHandle<()>> = Vec::new();
    while running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                ctx.count("serve.connections", 1);
                let conn = ctx.clone_for_conn();
                conn_handles.push(thread::spawn(move || conn_loop(stream, conn)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                ctx.count("serve.accept_errors", 1);
                thread::sleep(Duration::from_millis(5));
            }
        }
        // Reap finished connection threads so a long-lived daemon does
        // not accumulate handles (and panicked ones are counted, not
        // silently dropped).
        reap_connections(&mut conn_handles, &ctx);
        // Supervise the shard workers. While the daemon is running a
        // worker thread only ever finishes by dying (a panic that
        // escaped the per-request isolation): answer its lost in-flight
        // request with a retryable error and restart a fresh worker on
        // the same shard state — queue and caches survive the crash.
        for (si, handle) in worker_handles.iter_mut().enumerate() {
            if !handle.is_finished() {
                continue;
            }
            let shard = &ctx.shards[si];
            let replacement = spawn_worker(
                Arc::clone(shard),
                Arc::clone(&ctx.session),
                Arc::clone(&faults),
                Arc::clone(&stall_gate),
                Arc::clone(&running),
            );
            let dead = std::mem::replace(handle, replacement);
            let _ = dead.join();
            ctx.count("serve.worker_restarts", 1);
            if let Some(tag) = shard.take_inflight() {
                ctx.count("serve.worker_lost_requests", 1);
                tag.reply.send(&response_error(
                    tag.wire,
                    Some(&tag.id),
                    "worker-lost",
                    &format!("shard {si} worker died mid-request; worker restarted"),
                ));
            }
        }
    }

    // Teardown: stop accepting, let connection threads notice `running`
    // (they poll on a read timeout), then close the shard queues so each
    // worker drains what was admitted and exits.
    drop(listener);
    if let ServeAddr::Unix(path) = &config.addr {
        let _ = std::fs::remove_file(path);
    }
    while !conn_handles.is_empty() {
        reap_connections(&mut conn_handles, &ctx);
        if !conn_handles.is_empty() {
            thread::sleep(Duration::from_millis(2));
        }
    }
    for shard in ctx.shards.iter() {
        shard.queue.close();
    }
    for (si, h) in worker_handles.into_iter().enumerate() {
        let died = h.join().is_err();
        // A worker that died during the drain is not restarted, but its
        // in-flight request still gets its one response.
        if died {
            if let Some(tag) = ctx.shards[si].take_inflight() {
                ctx.count("serve.worker_lost_requests", 1);
                tag.reply.send(&response_error(
                    tag.wire,
                    Some(&tag.id),
                    "worker-lost",
                    &format!("shard {si} worker died during shutdown drain"),
                ));
            }
        }
    }

    let telemetry = ctx.snapshot();
    if let Some(root) = &config.telemetry_root {
        telemetry.write_results(root, "serve")?;
    }
    Ok(telemetry)
}

fn conn_loop(stream: Stream, ctx: ConnCtx) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(ConnWriter::new(clone)),
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream, ctx.max_line_bytes);
    loop {
        if !ctx.running.load(Ordering::SeqCst) {
            break;
        }
        match reader.next_line() {
            Ok(LineEvent::Line(line)) => {
                if !handle_line(&line, &writer, &ctx) {
                    break;
                }
            }
            Ok(LineEvent::Timeout) => {}
            Ok(LineEvent::Eof { partial: false }) => break,
            Ok(LineEvent::Eof { partial: true }) => {
                ctx.count("serve.truncated", 1);
                writer.send(&response_error(
                    Wire::V1,
                    None,
                    "truncated",
                    "request line truncated by connection close",
                ));
                break;
            }
            Ok(LineEvent::Oversized) => {
                ctx.count("serve.oversized", 1);
                writer.send(&response_error(
                    Wire::V1,
                    None,
                    "oversized",
                    &format!("request line exceeds {} bytes", ctx.max_line_bytes),
                ));
                break;
            }
            Err(_) => break,
        }
    }
}

/// Process one request line. Returns false when the connection should
/// close (shutdown).
fn handle_line(line: &str, writer: &Arc<ConnWriter>, ctx: &ConnCtx) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    ctx.count("serve.lines", 1);
    let (request, wire) = match parse_request(line) {
        Ok(r) => r,
        Err(we) => {
            ctx.count("serve.bad_requests", 1);
            // A line too broken to recover a schema from answers in v1.
            writer.send(&response_error(
                Wire::V1,
                we.id.as_deref(),
                we.kind,
                &we.message,
            ));
            return true;
        }
    };
    match request {
        Request::Ping { id } => {
            ctx.count("serve.pings", 1);
            writer.send(&response_plain(wire, &id, "pong"));
            true
        }
        Request::Stats { id } => {
            ctx.count("serve.stats_requests", 1);
            let snapshot = ctx.snapshot();
            writer.send(&response_stats(wire, &id, &snapshot));
            true
        }
        Request::Shutdown { id } => {
            ctx.count("serve.shutdowns", 1);
            writer.send(&response_plain(wire, &id, "bye"));
            ctx.running.store(false, Ordering::SeqCst);
            false
        }
        Request::Compile {
            id,
            approach,
            spec,
            deadline_ms,
            priority,
        } => {
            if let JobSpec::Bench(name) = &spec {
                // `benchmark()` panics on unknown names; reject here so a
                // typo is a protocol error, not a contained worker panic.
                if !dra_workloads::benchmark_names().contains(&name.as_str()) {
                    ctx.count("serve.bad_requests", 1);
                    writer.send(&response_error(
                        wire,
                        Some(&id),
                        "bad-request",
                        &format!("unknown benchmark {name:?}"),
                    ));
                    return true;
                }
            }
            let key = match &spec {
                JobSpec::Bench(name) => result_key("bench", name, approach),
                JobSpec::Source(text) => result_key("src", text, approach),
            };
            let shard = (key[0] % ctx.shards.len() as u64) as usize;
            if deadline_ms.is_some() {
                ctx.count("serve.deadline.with_deadline", 1);
            }
            let job = Job {
                id,
                approach,
                spec,
                reply: Arc::clone(writer),
                wire,
                priority,
                // The clock starts at admission: time spent queued counts
                // against the deadline (that is the point — a deadline
                // bounds *response* time, not compile time).
                deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
                deadline_ms,
            };
            match ctx.shards[shard].queue.try_push(job) {
                Admit::Queued(depth) => {
                    ctx.count("serve.dispatched", 1);
                    ctx.count("serve.overload.admitted", 1);
                    ctx.peak_depth.fetch_max(depth as u64, Ordering::Relaxed);
                    true
                }
                Admit::Overloaded(job) => {
                    ctx.count("serve.overload.shed", 1);
                    if job.priority == Priority::Interactive {
                        ctx.count("serve.overload.shed_interactive", 1);
                    }
                    writer.send(&response_error(
                        job.wire,
                        Some(&job.id),
                        "overloaded",
                        &format!(
                            "shard {shard} queue is full ({} priority); retry with backoff",
                            job.priority.label()
                        ),
                    ));
                    true
                }
                Admit::Closed(job) => {
                    writer.send(&response_error(
                        job.wire,
                        Some(&job.id),
                        "shutdown",
                        "server is shutting down",
                    ));
                    false
                }
            }
        }
    }
}

fn worker_loop(
    shard: &ShardState,
    session: &CompileSession,
    faults: &ServeFaults,
    stall_gate: &AtomicBool,
    running: &AtomicBool,
) {
    while let Some(job) = shard.queue.pop() {
        // Mark the job in-flight *before* any fallible work, so the
        // supervisor can answer it if this thread dies processing it.
        shard.set_inflight(Some(InflightTag {
            id: job.id.clone(),
            wire: job.wire,
            reply: Arc::clone(&job.reply),
        }));
        let start = Instant::now();
        // Count the dequeue immediately: `serve.requests` is the "a
        // worker picked this up" census, visible while the request is
        // still in flight (the chaos harness synchronizes on it).
        drop({
            let mut t = shard
                .telemetry
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            t.count("serve.requests", 1);
            t
        });
        let record = |count_key: &str| {
            let mut t = shard
                .telemetry
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            t.span_ns("serve.request", start.elapsed().as_nanos() as u64);
            t.count(count_key, 1);
            t
        };
        // Deadline check at dequeue: a request that expired while queued
        // is shed without compiling anything.
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            drop(record("serve.deadline.shed_queued"));
            job.reply.send(&response_error(
                job.wire,
                Some(&job.id),
                "deadline",
                &format!(
                    "deadline of {} ms expired while queued",
                    job.deadline_ms.unwrap_or(0)
                ),
            ));
            shard.set_inflight(None);
            continue;
        }
        if faults.kill_request_ids.contains(&job.id) {
            // Escape the per-request isolation on purpose: the thread
            // dies with the job still marked in-flight, exercising the
            // supervisor's restart-and-respond path.
            panic!("injected worker kill (request {})", job.id);
        }
        if faults.stall_request_ids.contains(&job.id) {
            // A wedged request: block until the harness opens the gate
            // (or the daemon shuts down — a stall must not outlive it).
            while !stall_gate.load(Ordering::SeqCst) && running.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let token = CancelToken::with_deadline(job.deadline);
        let retries = session.setup().cell_retries;
        let (outcome, _attempts) = run_isolated_cancellable(retries, Some(&token), || {
            if faults.panic_request_ids.contains(&job.id) {
                panic!("injected serve fault (request {})", job.id);
            }
            match &job.spec {
                JobSpec::Bench(name) => session.compile_bench(name, job.approach),
                JobSpec::Source(text) => session.compile_source(text, job.approach),
            }
        });
        let micros = start.elapsed().as_micros() as u64;
        match outcome {
            crate::batch::CellOutcome::Ok(Ok((run, cached))) => {
                let mut t = record("serve.ok");
                if cached {
                    t.count("serve.cache_hits", 1);
                } else {
                    // Fold the fresh compile's pipeline telemetry into
                    // this shard's frame (cache hits did no new work).
                    t.merge(&run.telemetry);
                }
                drop(t);
                job.reply
                    .send(&response_run(job.wire, &job.id, &run, cached, micros));
            }
            crate::batch::CellOutcome::Ok(Err(e)) => {
                drop(record("serve.errors"));
                job.reply.send(&response_error(
                    job.wire,
                    Some(&job.id),
                    e.kind(),
                    &e.to_string(),
                ));
            }
            crate::batch::CellOutcome::Failed { stage, message } => {
                drop(record("serve.panics"));
                job.reply.send(&response_error(
                    job.wire,
                    Some(&job.id),
                    "panic",
                    &format!("panic in stage {stage:?}: {message}"),
                ));
            }
            crate::batch::CellOutcome::Cancelled { stage } => {
                drop(record("serve.deadline.cancelled"));
                job.reply.send(&response_error(
                    job.wire,
                    Some(&job.id),
                    "deadline",
                    &format!(
                        "deadline of {} ms expired mid-compile (at stage {stage:?})",
                        job.deadline_ms.unwrap_or(0)
                    ),
                ));
            }
        }
        shard.set_inflight(None);
    }
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// Jittered exponential backoff for retrying shed requests.
///
/// Delay before retry `n` (0-based) is drawn uniformly from
/// `[exp/2, exp)` where `exp = min(base_ms << n, cap_ms)` — "equal
/// jitter", which keeps retries from synchronising into waves while
/// still guaranteeing at least half the nominal delay.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Total attempts including the first (minimum 1).
    pub attempts: u32,
    /// First retry's nominal delay.
    pub base_ms: u64,
    /// Ceiling on the nominal delay.
    pub cap_ms: u64,
    /// Seed for the jitter stream — fixed seed, fixed delays.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            attempts: 4,
            base_ms: 10,
            cap_ms: 200,
            seed: 0x9e37_79b9,
        }
    }
}

impl BackoffPolicy {
    fn delay_ms(&self, retry: u32, rng: &mut SplitMix64) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << retry.min(16))
            .min(self.cap_ms.max(1));
        let half = (exp / 2).max(1);
        half + rng.below(half)
    }
}

/// A blocking line-protocol client.
pub struct ServeClient {
    reader: LineReader,
    writer: Stream,
}

impl ServeClient {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &ServeAddr) -> io::Result<ServeClient> {
        let stream = Stream::connect(addr)?;
        let reader = LineReader::new(stream.try_clone()?, DEFAULT_MAX_LINE_BYTES);
        Ok(ServeClient {
            reader,
            writer: stream,
        })
    }

    /// Connect, retrying until `deadline` elapses — for scripts that
    /// race the daemon's startup.
    ///
    /// # Errors
    ///
    /// The last connection failure once the deadline passes.
    pub fn connect_with_retry(addr: &ServeAddr, deadline: Duration) -> io::Result<ServeClient> {
        let start = Instant::now();
        loop {
            match ServeClient::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= deadline => return Err(e),
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Send one raw request line.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Block until the next response line arrives and parse it.
    ///
    /// # Errors
    ///
    /// Read failures, early EOF, or a malformed response.
    pub fn recv_response(&mut self) -> io::Result<Response> {
        loop {
            match self.reader.next_line()? {
                LineEvent::Line(line) => {
                    return Response::parse(&line)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
                }
                LineEvent::Timeout => continue,
                LineEvent::Eof { .. } => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                LineEvent::Oversized => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "oversized response line",
                    ))
                }
            }
        }
    }

    /// Send a raw line and collect its response.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::send_line`] / [`ServeClient::recv_response`].
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        self.send_line(line)?;
        self.recv_response()
    }

    /// Send a raw line, retrying retryable errors (`overloaded`,
    /// `deadline`, `worker-lost`, `shutdown`) with jittered exponential
    /// backoff. Returns the last response — still `ok:false` when every
    /// attempt was shed.
    ///
    /// # Errors
    ///
    /// Transport failures on any attempt.
    pub fn request_with_backoff(
        &mut self,
        line: &str,
        policy: &BackoffPolicy,
    ) -> io::Result<Response> {
        let mut rng = SplitMix64::new(policy.seed);
        let mut attempt = 0u32;
        loop {
            let resp = self.request(line)?;
            attempt += 1;
            if resp.ok || !resp.retryable || attempt >= policy.attempts.max(1) {
                return Ok(resp);
            }
            thread::sleep(Duration::from_millis(policy.delay_ms(attempt - 1, &mut rng)));
        }
    }

    /// Compile a builtin benchmark.
    ///
    /// # Errors
    ///
    /// Transport failures (a pipeline error is an `ok:false` response,
    /// not an `Err`).
    pub fn compile_bench(
        &mut self,
        id: &str,
        bench: &str,
        approach: Approach,
    ) -> io::Result<Response> {
        self.request(&request_compile_bench(id, bench, approach))
    }

    /// Compile inline program text.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn compile_source(
        &mut self,
        id: &str,
        source: &str,
        approach: Approach,
    ) -> io::Result<Response> {
        self.request(&request_compile_source(id, source, approach))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ping(&mut self, id: &str) -> io::Result<Response> {
        self.request(&request_plain(id, "ping"))
    }

    /// Fetch the daemon's merged telemetry snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self, id: &str) -> io::Result<Response> {
        self.request(&request_plain(id, "stats"))
    }

    /// Request graceful shutdown.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self, id: &str) -> io::Result<Response> {
        self.request(&request_plain(id, "shutdown"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_request_roundtrips_every_kind() {
        let (r, wire) = parse_request(&request_compile_bench("a", "crc32", Approach::Select)).unwrap();
        assert_eq!(wire, Wire::V1);
        assert_eq!(
            r,
            Request::Compile {
                id: "a".into(),
                approach: Approach::Select,
                spec: JobSpec::Bench("crc32".into()),
                deadline_ms: None,
                priority: Priority::Interactive,
            }
        );
        let src = "fn f {\n  entry:\n    ret\n}\n";
        let (r, wire) = parse_request(&request_compile_source("b", src, Approach::OSpill)).unwrap();
        assert_eq!(wire, Wire::V1);
        assert_eq!(
            r,
            Request::Compile {
                id: "b".into(),
                approach: Approach::OSpill,
                spec: JobSpec::Source(src.into()),
                deadline_ms: None,
                priority: Priority::Interactive,
            }
        );
        for (kind, want) in [
            ("ping", Request::Ping { id: "c".into() }),
            ("stats", Request::Stats { id: "c".into() }),
            ("shutdown", Request::Shutdown { id: "c".into() }),
        ] {
            let (got, wire) = parse_request(&request_plain("c", kind)).unwrap();
            assert_eq!(wire, Wire::V1);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn parse_request_accepts_v2_deadline_and_priority() {
        let line = r#"{"schema":"dra-serve-v2","id":"a","kind":"compile","approach":"select","bench":"crc32","deadline_ms":250,"priority":"batch"}"#;
        let (r, wire) = parse_request(line).unwrap();
        assert_eq!(wire, Wire::V2);
        assert_eq!(
            r,
            Request::Compile {
                id: "a".into(),
                approach: Approach::Select,
                spec: JobSpec::Bench("crc32".into()),
                deadline_ms: Some(250),
                priority: Priority::Batch,
            }
        );
        // Absent v2 fields keep v1 semantics.
        let line = Request::Compile {
            id: "b".into(),
            approach: Approach::OSpill,
            spec: JobSpec::Source("fn f {\n  entry:\n    ret\n}\n".into()),
            deadline_ms: None,
            priority: Priority::Interactive,
        }
        .to_line(Wire::V2);
        let (r, wire) = parse_request(&line).unwrap();
        assert_eq!(wire, Wire::V2);
        match r {
            Request::Compile {
                deadline_ms,
                priority,
                ..
            } => {
                assert_eq!(deadline_ms, None);
                assert_eq!(priority, Priority::Interactive);
            }
            other => panic!("unexpected request: {other:?}"),
        }
        // Plain kinds ride v2 too, and responses echo the schema.
        let (_, wire) = parse_request(
            "{\"schema\":\"dra-serve-v2\",\"id\":\"p\",\"kind\":\"ping\"}",
        )
        .unwrap();
        assert_eq!(wire, Wire::V2);
    }

    #[test]
    fn v2_only_fields_are_rejected_on_v1() {
        let err = parse_request(
            "{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"compile\",\"approach\":\"select\",\"bench\":\"crc32\",\"deadline_ms\":10}",
        )
        .unwrap_err();
        assert_eq!(err.kind, "bad-request");
        let err = parse_request(
            "{\"schema\":\"dra-serve-v2\",\"id\":\"x\",\"kind\":\"compile\",\"approach\":\"select\",\"bench\":\"crc32\",\"priority\":\"urgent\"}",
        )
        .unwrap_err();
        assert_eq!(err.kind, "bad-request");
        let err = parse_request(
            "{\"schema\":\"dra-serve-v2\",\"id\":\"x\",\"kind\":\"compile\",\"approach\":\"select\",\"bench\":\"crc32\",\"deadline_ms\":-4}",
        )
        .unwrap_err();
        assert_eq!(err.kind, "bad-request");
    }

    #[test]
    fn parse_request_rejects_hostile_lines() {
        let cases: &[(&str, &str)] = &[
            ("", "bad-json"),
            ("{", "bad-json"),
            ("[1,2]", "bad-json"),
            ("{\"schema\":\"dra-serve-v1\",\"kind\":\"ping\"}", "bad-request"), // no id
            ("{\"schema\":\"dra-serve-v1\",\"id\":\"\",\"kind\":\"ping\"}", "bad-request"),
            ("{\"schema\":\"nope\",\"id\":\"x\",\"kind\":\"ping\"}", "bad-request"),
            ("{\"id\":\"x\",\"kind\":\"ping\"}", "bad-request"), // no schema
            ("{\"schema\":\"dra-serve-v1\",\"id\":\"x\"}", "bad-request"), // no kind
            ("{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"frobnicate\"}", "bad-request"),
            // Unknown field.
            (
                "{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"ping\",\"extra\":1}",
                "bad-request",
            ),
            // compile: missing approach / payload, both payloads, bad types.
            (
                "{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"compile\",\"bench\":\"crc32\"}",
                "bad-request",
            ),
            (
                "{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"compile\",\"approach\":\"warp\",\"bench\":\"crc32\"}",
                "bad-request",
            ),
            (
                "{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"compile\",\"approach\":\"select\"}",
                "bad-request",
            ),
            (
                "{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"compile\",\"approach\":\"select\",\"bench\":\"a\",\"source\":\"b\"}",
                "bad-request",
            ),
            (
                "{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"kind\":\"compile\",\"approach\":\"select\",\"bench\":7}",
                "bad-request",
            ),
        ];
        for (line, want_kind) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(&err.kind, want_kind, "line: {line}");
        }
    }

    #[test]
    fn hostile_errors_echo_the_id_once_known() {
        let err = parse_request(
            "{\"schema\":\"dra-serve-v1\",\"id\":\"req-9\",\"kind\":\"compile\",\"approach\":\"warp\",\"bench\":\"crc32\"}",
        )
        .unwrap_err();
        assert_eq!(err.id.as_deref(), Some("req-9"));
        // …and not before the id field validates.
        let err = parse_request("{\"schema\":\"dra-serve-v1\",\"id\":7,\"kind\":\"ping\"}").unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn response_lines_parse_back() {
        let e = Response::parse(&response_error(Wire::V1, Some("x"), "bad-request", "nope")).unwrap();
        assert!(!e.ok);
        assert_eq!(e.id.as_deref(), Some("x"));
        assert_eq!(e.error.as_ref().unwrap().0, "bad-request");
        assert!(!e.retryable);

        let p = Response::parse(&response_plain(Wire::V1, "y", "pong")).unwrap();
        assert!(p.ok);
        assert_eq!(p.kind.as_deref(), Some("pong"));

        let mut t = Telemetry::new();
        t.count("serve.requests", 3);
        let s = Response::parse(&response_stats(Wire::V1, "z", &t)).unwrap();
        let stats = s.stats.unwrap();
        assert_eq!(stats.counters.get("serve.requests"), Some(&3));
    }

    #[test]
    fn shed_errors_are_marked_retryable_and_echo_the_wire() {
        for kind in ["overloaded", "deadline", "worker-lost", "shutdown"] {
            let line = response_error(Wire::V2, Some("x"), kind, "shed");
            assert!(line.contains("dra-serve-v2"), "line: {line}");
            let r = Response::parse(&line).unwrap();
            assert!(r.retryable, "kind {kind} should be retryable");
        }
        for kind in ["bad-request", "panic", "parse", "oversized"] {
            let r = Response::parse(&response_error(Wire::V2, Some("x"), kind, "no")).unwrap();
            assert!(!r.retryable, "kind {kind} should not be retryable");
        }
    }

    /// A hand-built run whose every printed field is distinct.
    fn golden_run() -> LowEndRun {
        LowEndRun {
            approach: Approach::OSpill,
            spill_insts: 2,
            set_last_regs: 3,
            total_insts: 41,
            code_bits: 656,
            cycles: 1234,
            dynamic_spills: 5,
            dynamic_set_last_regs: 6,
            icache_misses: 7,
            dcache_misses: 8,
            ret_value: Some(-9),
            remap: vec![dra_regalloc::RemapStats::degraded_marker()],
            entry_trace: Vec::new(),
            block_counts: Default::default(),
            telemetry: Telemetry::new(),
            program: dra_ir::Program::default(),
        }
    }

    #[test]
    fn response_lines_are_pinned_byte_for_byte() {
        let run = golden_run();
        let result = r#"{"approach":"O-spill","total_insts":41,"spill_insts":2,"set_last_regs":3,"code_bits":656,"cycles":1234,"dynamic_spills":5,"dynamic_set_last_regs":6,"icache_misses":7,"dcache_misses":8,"degraded_funcs":1,"ret":-9}"#;
        assert_eq!(result_json(&run), result);
        let mut no_ret = run.clone();
        no_ret.ret_value = None;
        assert!(result_json(&no_ret).ends_with(r#""degraded_funcs":1,"ret":null}"#));
        assert_eq!(
            response_run(Wire::V2, "r1", &run, true, 17),
            format!(
                r#"{{"schema":"dra-serve-v2","id":"r1","ok":true,"kind":"compile","cached":true,"micros":17,"result":{result}}}"#
            )
        );
        assert_eq!(
            response_error(Wire::V1, Some("x\"y"), "bad-request", "line\nbreak\u{1}"),
            r#"{"schema":"dra-serve-v1","id":"x\"y","ok":false,"error":{"kind":"bad-request","retryable":false,"message":"line\nbreak\u0001"}}"#
        );
        assert_eq!(
            response_error(Wire::V2, None, "overloaded", "full"),
            r#"{"schema":"dra-serve-v2","id":null,"ok":false,"error":{"kind":"overloaded","retryable":true,"message":"full"}}"#
        );
        assert_eq!(
            response_plain(Wire::V1, "p", "pong"),
            r#"{"schema":"dra-serve-v1","id":"p","ok":true,"kind":"pong"}"#
        );
        let mut t = Telemetry::new();
        t.count("serve.requests", 3);
        t.span_ns("serve.request", 9);
        assert_eq!(
            response_stats(Wire::V1, "s", &t),
            r#"{"schema":"dra-serve-v1","id":"s","ok":true,"kind":"stats","stats":{"schema":"dra-telemetry-v1","binary":"serve","counters":{"serve.requests":3},"spans_ns":{"serve.request":9}}}"#
        );
    }

    #[test]
    fn request_lines_are_pinned_byte_for_byte() {
        assert_eq!(
            request_compile_bench("a\"1", "crc32", Approach::Select),
            r#"{"schema":"dra-serve-v1","id":"a\"1","kind":"compile","approach":"select","bench":"crc32"}"#
        );
        assert_eq!(
            request_compile_source("b", "fn f {\n\tret \\ é\n}\n", Approach::OSpill),
            r#"{"schema":"dra-serve-v1","id":"b","kind":"compile","approach":"O-spill","source":"fn f {\n\tret \\ é\n}\n"}"#
        );
        for kind in ["ping", "stats", "shutdown"] {
            assert_eq!(
                request_plain("c", kind),
                format!(r#"{{"schema":"dra-serve-v1","id":"c","kind":"{kind}"}}"#)
            );
        }
        let v2 = |id: &str, approach, deadline_ms, priority| {
            Request::Compile {
                id: id.into(),
                approach,
                spec: JobSpec::Source("x".into()),
                deadline_ms,
                priority,
            }
            .to_line(Wire::V2)
        };
        assert_eq!(
            v2("d", Approach::Select, Some(250), Priority::Batch),
            r#"{"schema":"dra-serve-v2","id":"d","kind":"compile","approach":"select","source":"x","deadline_ms":250,"priority":"batch"}"#
        );
        assert_eq!(
            v2("e", Approach::Coalesce, None, Priority::Interactive),
            r#"{"schema":"dra-serve-v2","id":"e","kind":"compile","approach":"coalesce","source":"x"}"#
        );
    }

    /// Ids and texts that exercise every escape the writer makes.
    fn awkward_texts() -> Vec<String> {
        let control: String = (1u32..0x20).filter_map(char::from_u32).collect();
        vec![
            "plain".into(),
            "q\"uote \\back\nnew\ttab\r".into(),
            control,
            "é ü 中文 😀 𝄞".into(),
            "fn f {\n  entry:\n    ret\n}\n; 😀\u{7f}".into(),
        ]
    }

    #[test]
    fn every_request_round_trips_through_its_line() {
        let approaches = Approach::ALL.iter().copied().chain([Approach::Adaptive]);
        let approaches: Vec<Approach> = approaches.collect();
        for wire in [Wire::V1, Wire::V2] {
            // The v2 fields ride only on v2 lines.
            let v2_fields: &[(Option<u64>, Priority)] = match wire {
                Wire::V1 => &[(None, Priority::Interactive)],
                Wire::V2 => &[
                    (None, Priority::Interactive),
                    (Some(0), Priority::Interactive),
                    (None, Priority::Batch),
                    (Some(250), Priority::Batch),
                ],
            };
            for text in awkward_texts() {
                let id = text.clone();
                let mut requests = vec![
                    Request::Ping { id: id.clone() },
                    Request::Stats { id: id.clone() },
                    Request::Shutdown { id: id.clone() },
                ];
                for (i, &approach) in approaches.iter().enumerate() {
                    let spec = if i % 2 == 0 {
                        JobSpec::Source(text.clone())
                    } else {
                        JobSpec::Bench(text.clone())
                    };
                    for &(deadline_ms, priority) in v2_fields {
                        requests.push(Request::Compile {
                            id: id.clone(),
                            approach,
                            spec: spec.clone(),
                            deadline_ms,
                            priority,
                        });
                    }
                }
                for r in requests {
                    let line = r.to_line(wire);
                    assert!(!line.contains('\n'), "one line: {line:?}");
                    assert_eq!(parse_request(&line), Ok((r, wire)), "{line:?}");
                }
            }
        }
    }

    #[test]
    fn every_response_line_parses_back() {
        let run = golden_run();
        let mut t = Telemetry::new();
        t.count("serve.requests", 3);
        t.span_ns("serve.request", 9);
        for wire in [Wire::V1, Wire::V2] {
            for text in awkward_texts() {
                let line = response_run(wire, &text, &run, true, 17);
                let r = Response::parse(&line).unwrap();
                assert!(r.ok && r.cached && r.micros == 17, "{line:?}");
                assert_eq!(r.id.as_deref(), Some(text.as_str()));
                assert_eq!(r.result_fragment(), Some(result_json(&run).as_str()));
                assert_eq!(r.result.unwrap()["degraded_funcs"].as_u64(), Some(1));

                for kind in ["overloaded", "bad-request"] {
                    let line = response_error(wire, Some(&text), kind, &text);
                    let r = Response::parse(&line).unwrap();
                    assert!(!r.ok);
                    assert_eq!(r.id.as_deref(), Some(text.as_str()));
                    assert_eq!(r.error, Some((kind.to_string(), text.clone())));
                    assert_eq!(r.retryable, retryable_kind(kind));
                }
                let r = Response::parse(&response_error(wire, None, "bad-json", &text)).unwrap();
                assert_eq!(r.id, None);

                for kind in ["pong", "bye"] {
                    let r = Response::parse(&response_plain(wire, &text, kind)).unwrap();
                    assert!(r.ok);
                    assert_eq!(r.kind.as_deref(), Some(kind));
                    assert_eq!(r.id.as_deref(), Some(text.as_str()));
                }

                let r = Response::parse(&response_stats(wire, &text, &t)).unwrap();
                assert_eq!(r.id.as_deref(), Some(text.as_str()));
                let stats = r.stats.unwrap();
                assert_eq!(stats.counters, t.counters().clone());
                assert_eq!(stats.spans_ns, t.spans().clone());
            }
        }
    }

    #[test]
    fn backoff_delays_are_deterministic_bounded_and_grow() {
        let policy = BackoffPolicy {
            attempts: 6,
            base_ms: 8,
            cap_ms: 64,
            seed: 42,
        };
        let mut a = SplitMix64::new(policy.seed);
        let mut b = SplitMix64::new(policy.seed);
        for retry in 0..6 {
            let da = policy.delay_ms(retry, &mut a);
            let db = policy.delay_ms(retry, &mut b);
            assert_eq!(da, db, "same seed, same delays");
            let exp = (8u64 << retry).min(64);
            assert!(da >= exp / 2 && da < exp.max(2), "retry {retry}: {da} vs exp {exp}");
        }
    }

    fn test_job(id: &str, priority: Priority) -> Job {
        let (a, _b) = UnixStream::pair().unwrap();
        Job {
            id: id.into(),
            approach: Approach::Select,
            spec: JobSpec::Bench("crc32".into()),
            reply: Arc::new(ConnWriter::new(Stream::Unix(a))),
            wire: Wire::V2,
            priority,
            deadline: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn shard_queue_sheds_batch_before_interactive() {
        let q = ShardQueue::new(2);
        // Batch lane fills at cap.
        assert!(matches!(q.try_push(test_job("b1", Priority::Batch)), Admit::Queued(1)));
        assert!(matches!(q.try_push(test_job("b2", Priority::Batch)), Admit::Queued(2)));
        assert!(matches!(q.try_push(test_job("b3", Priority::Batch)), Admit::Overloaded(_)));
        // Interactive still has headroom up to 2*cap...
        assert!(matches!(q.try_push(test_job("i1", Priority::Interactive)), Admit::Queued(3)));
        assert!(matches!(q.try_push(test_job("i2", Priority::Interactive)), Admit::Queued(4)));
        // ...then sheds too.
        assert!(matches!(q.try_push(test_job("i3", Priority::Interactive)), Admit::Overloaded(_)));
        // Interactive dequeues ahead of earlier-arrived batch.
        assert_eq!(q.pop().unwrap().id, "i1");
        assert_eq!(q.pop().unwrap().id, "i2");
        assert_eq!(q.pop().unwrap().id, "b1");
        q.close();
        assert_eq!(q.pop().unwrap().id, "b2");
        assert!(q.pop().is_none());
        assert!(matches!(q.try_push(test_job("late", Priority::Batch)), Admit::Closed(_)));
    }

    #[test]
    fn shard_queue_cap_zero_is_unbounded() {
        let q = ShardQueue::new(0);
        for i in 0..512 {
            assert!(matches!(
                q.try_push(test_job(&format!("j{i}"), Priority::Batch)),
                Admit::Queued(_)
            ));
        }
    }

    #[test]
    fn oversized_line_reader_rejects_without_allocating_the_world() {
        // A socketless check of the framing state machine via a Unix
        // socketpair.
        let (a, b) = UnixStream::pair().unwrap();
        let mut reader = LineReader::new(Stream::Unix(a), 1024);
        let mut tx = b;
        tx.write_all(&vec![b'x'; 4096]).unwrap();
        drop(tx);
        match reader.next_line().unwrap() {
            LineEvent::Oversized => {}
            _ => panic!("expected Oversized"),
        }
    }

    #[test]
    fn line_reader_cap_holds_when_the_newline_arrives_past_it() {
        // The whole over-cap line, newline included, lands in one read.
        let (a, b) = UnixStream::pair().unwrap();
        let mut reader = LineReader::new(Stream::Unix(a), 1024);
        let mut tx = b;
        let mut line = vec![b'x'; 2000];
        line.push(b'\n');
        tx.write_all(&line).unwrap();
        drop(tx);
        match reader.next_line().unwrap() {
            LineEvent::Oversized => {}
            _ => panic!("expected Oversized"),
        }
    }

    #[test]
    fn truncated_line_is_flagged_at_eof() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut reader = LineReader::new(Stream::Unix(a), 1024);
        let mut tx = b;
        tx.write_all(b"{\"half\":").unwrap();
        drop(tx);
        match reader.next_line().unwrap() {
            LineEvent::Eof { partial: true } => {}
            _ => panic!("expected partial EOF"),
        }
    }

    #[test]
    fn slowloris_byte_at_a_time_still_yields_a_full_line() {
        // A client dribbling one byte per write must not confuse the
        // framing: the reader keeps accumulating until the newline.
        let (a, b) = UnixStream::pair().unwrap();
        let line = request_plain("slow", "ping");
        let mut tx = b;
        let reader_thread = thread::spawn(move || {
            let mut reader = LineReader::new(Stream::Unix(a), 1024);
            reader.next_line().unwrap()
        });
        for byte in line.as_bytes() {
            tx.write_all(std::slice::from_ref(byte)).unwrap();
            tx.flush().unwrap();
        }
        tx.write_all(b"\n").unwrap();
        match reader_thread.join().unwrap() {
            LineEvent::Line(got) => assert_eq!(got, line),
            other => panic!("expected Line, got {other:?}"),
        }
    }

    #[test]
    fn slowloris_stall_mid_line_surfaces_timeouts_not_a_hang() {
        // A client that sends half a line and goes silent: with a read
        // timeout armed, the reader must keep returning Timeout (so the
        // serve loop can check shutdown) instead of blocking forever,
        // and still finish the line when the bytes eventually arrive.
        let (a, b) = UnixStream::pair().unwrap();
        a.set_read_timeout(Some(Duration::from_millis(10))).unwrap();
        let mut reader = LineReader::new(Stream::Unix(a), 1024);
        let mut tx = b;
        tx.write_all(b"{\"schema\":\"dra-serve-v1\",").unwrap();
        let mut timeouts = 0;
        loop {
            match reader.next_line().unwrap() {
                LineEvent::Timeout => {
                    timeouts += 1;
                    if timeouts == 3 {
                        // Stall observed repeatedly; now complete the line.
                        tx.write_all(b"\"id\":\"s\",\"kind\":\"ping\"}\n").unwrap();
                    }
                }
                LineEvent::Line(line) => {
                    let (req, _) = parse_request(&line).unwrap();
                    assert_eq!(req, Request::Ping { id: "s".into() });
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(timeouts >= 3);
    }
}
