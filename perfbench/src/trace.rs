//! In-memory spans recorded around each public call the traced run makes:
//! name, start, end, parent and job id. Written out once, at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer or call name.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to (a program, cell, request or chunk).
    pub job: u64,
}

/// A thread-safe span log.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let start_ns = self.now_ns();
        let mut log = self.log();
        log.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            job,
        });
        log.len() - 1
    }

    /// Close span `id`, returning its duration in nanoseconds.
    pub fn end(&self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let mut log = self.log();
        log[id].end_ns = end_ns;
        end_ns - log[id].start_ns
    }

    /// Run `f` inside a span; returns its value and duration.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent, job);
        let r = f();
        (r, self.end(id))
    }

    /// Record an already-measured interval; returns its span id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut log = self.log();
        log.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            job,
        });
        log.len() - 1
    }

    /// Write every span as one JSON document.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let log = self.log();
        let mut out = String::from("{\"schema\":\"dra-perfbench-spans-v1\",\"spans\":[\n");
        for (i, s) in log.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.job,
                if i + 1 < log.len() { "," } else { "" },
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
