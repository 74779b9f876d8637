//! serve-open: an in-process `serve()` daemon on a Unix socket, driven by
//! an open-loop generator that sends `select` compile requests on a
//! seeded fixed-rate schedule over a skewed pool of distinct programs.

use crate::common::{ms_since, repeat_setup, Ctx, Outcome};
use crate::lowend::Quality;
use crate::stats::{due_offset, lateness, median, open_loop_latency, ratio, tail};
use crate::trace::Tracer;
use dra_core::serve::{
    request_compile_bench, request_compile_source, request_plain, serve, Response, ServeAddr,
    ServeConfig, ServerHandle,
};
use dra_core::session::DEFAULT_RESULT_CAPACITY;
use dra_core::telemetry::Json;
use dra_core::{Approach, SplitMix64, Telemetry};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Distinct programs in the pool (more than the 256-entry result cache).
const POOL_PROGRAMS: usize = 320;
/// The hot set: the first programs of the seeded pool.
const HOT_PROGRAMS: usize = 16;
/// One request in every block of this many asks for a cold program.
const COLD_EVERY: usize = 10;
/// Offered load, requests per second: four misses a second keep each of
/// two workers under half busy at ~200 ms a miss, and a window of 25 s
/// or more holds the 100 misses a p90 tail needs.
const RATE_PER_S: f64 = 40.0;
/// The pool is the same on every seed (the seed draws the schedule), so
/// the miss latencies of different seeds compare the same programs.
const POOL_SEED: u64 = 0x5e7e;
/// Fillers sent per connection during warm-up.
const FILL_CHUNK: usize = 4;
/// Placeholder for the request id in a prebuilt request line.
const ID_SLOT: &str = "@id@";
/// A response slower than this fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Generate the pool of distinct `embedded-dsp` programs; returns their
/// texts and the generation time in ms.
fn build_pool() -> (Vec<String>, f64) {
    let t0 = Instant::now();
    let profile = dra_workloads::builtin_profile("embedded-dsp").expect("builtin profile");
    let mut texts: Vec<String> =
        dra_workloads::generate_from_profile(&profile, POOL_SEED, POOL_PROGRAMS * 4)
            .expect("builtin profiles validate")
            .iter()
            .map(ToString::to_string)
            .collect();
    assert!(texts.len() >= POOL_PROGRAMS, "pool too small");
    texts.truncate(POOL_PROGRAMS);
    (texts, ms_since(t0))
}

/// The program each scheduled request asks for. Each block of
/// [`COLD_EVERY`] requests holds exactly one cold request, in its middle;
/// the others draw uniformly from the hot set under the seed. Cold programs
/// are taken in pool order without repeats, starting at `first_cold`, so
/// every cold request is a miss and the misses of a window are the same
/// programs on every seed.
fn schedule(seed: u64, n: usize, first_cold: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_0be1);
    let mut cold = (HOT_PROGRAMS..POOL_PROGRAMS).cycle().skip(first_cold);
    let mut picks = Vec::with_capacity(n);
    while picks.len() < n {
        for k in 0..COLD_EVERY {
            picks.push(if k == COLD_EVERY / 2 {
                cold.next().expect("cycled")
            } else {
                rng.below(HOT_PROGRAMS as u64) as usize
            });
        }
    }
    picks.truncate(n);
    picks
}

/// A cheap program, distinct for each `i`. Warm-up fills the result cache
/// with these before it compiles the hot set, so the cache is full and
/// the fillers are its least recently used entries: every cold request
/// then evicts one (miss, insert, evict) and no hot program is evicted.
fn filler(i: usize) -> String {
    format!(
        "fn filler([v0]):\nbb0:\n    v0 = param 0\n    v1 = add v0, v0\n    ret v1\n; filler {i}\n"
    )
}

fn start_daemon(sock: &Path, workers: usize) -> io::Result<ServerHandle> {
    let _ = std::fs::remove_file(sock);
    let mut cfg = ServeConfig::new(ServeAddr::Unix(sock.to_path_buf()));
    cfg.workers = workers;
    serve(cfg)
}

fn connect(sock: &Path) -> io::Result<(UnixStream, BufReader<UnixStream>)> {
    let stream = UnixStream::connect(sock)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn read_response(reader: &mut BufReader<UnixStream>) -> io::Result<(Instant, Response)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed",
        ));
    }
    let at = Instant::now();
    Response::parse(line.trim_end())
        .map(|r| (at, r))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Send every line at once, then read one response per line (in
/// arrival order).
fn pipelined(sock: &Path, lines: &[String]) -> io::Result<Vec<Response>> {
    let (mut w, mut r) = connect(sock)?;
    let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
    w.write_all(batch.as_bytes())?;
    (0..lines.len())
        .map(|_| read_response(&mut r).map(|(_, resp)| resp))
        .collect()
}

/// One open-loop request as observed.
struct Sample {
    program: usize,
    due: Duration,
    sent: Duration,
    done: Duration,
    resp: Response,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        open_loop_latency(self.due, self.done).as_secs_f64() * 1e3
    }
}

/// Run one open-loop phase: request `i` for `texts[picks[i]]` is due at
/// `i / RATE_PER_S` after the start, sent from this thread, and its
/// response read on a second thread of the same connection.
fn open_loop(
    sock: &Path,
    texts: &[String],
    picks: &[usize],
    tag: &str,
) -> io::Result<(Instant, Vec<Sample>)> {
    // One request line per pool program, its id filled in at send time.
    let templates: HashMap<usize, String> = picks
        .iter()
        .map(|&p| {
            (
                p,
                format!(
                    "{}\n",
                    request_compile_source(ID_SLOT, &texts[p], Approach::Select)
                ),
            )
        })
        .collect();
    let (mut writer, mut reader) = connect(sock)?;
    let n = picks.len();
    let start = Instant::now();
    let (sent, arrivals) = std::thread::scope(|s| {
        let rx = s.spawn(move || {
            (0..n)
                .map(|_| read_response(&mut reader))
                .collect::<io::Result<Vec<_>>>()
        });
        let mut sent = Vec::with_capacity(n);
        for (i, p) in picks.iter().enumerate() {
            let line = templates[p].replacen(ID_SLOT, &format!("{tag}{i}"), 1);
            let due = due_offset(i as u64, RATE_PER_S);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            writer.write_all(line.as_bytes())?;
            sent.push(start.elapsed());
        }
        let arrivals = rx.join().expect("reader thread")?;
        Ok::<_, io::Error>((sent, arrivals))
    })?;
    let mut samples: Vec<Option<Sample>> = (0..n).map(|_| None).collect();
    for (at, resp) in arrivals {
        let i: usize = resp
            .id
            .as_deref()
            .and_then(|id| id.strip_prefix(tag))
            .and_then(|k| k.parse().ok())
            .filter(|&i: &usize| i < n)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown response id"))?;
        samples[i] = Some(Sample {
            program: picks[i],
            due: due_offset(i as u64, RATE_PER_S),
            sent: sent[i],
            done: at.duration_since(start),
            resp,
        });
    }
    let samples = samples
        .into_iter()
        .map(|s| s.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing response")))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((start, samples))
}

/// Charge a failed response by its error kind.
fn charge(out: &mut Outcome, what: &str, resp: &Response) {
    let (kind, msg) = resp.error.clone().unwrap_or_default();
    match kind.as_str() {
        "overloaded" => out.failures.sheds += 1,
        "deadline" => out.failures.deadline_misses += 1,
        "panic" | "worker-lost" => out.failures.panics += 1,
        _ => out.failures.errors += 1,
    }
    out.problem(format!("{what}: {kind}: {msg}"));
}

/// Every response must be `ok`, and every result for a text must be
/// byte-identical to the first one seen for it.
fn check_results(
    out: &mut Outcome,
    what: &str,
    keyed: impl Iterator<Item = (usize, Response)>,
    first: &mut HashMap<usize, String>,
) {
    for (key, resp) in keyed {
        out.attempted += 1;
        if !resp.ok {
            charge(out, what, &resp);
            continue;
        }
        let fragment = resp.result_fragment().unwrap_or_default().to_string();
        match first.get(&key) {
            Some(f) if *f != fragment => {
                out.failures.errors += 1;
                out.problem(format!("{what}: result for program {key} changed"));
            }
            Some(_) => {}
            None if resp.cached => {
                out.problem(format!("{what}: program {key} hit before any miss"));
            }
            None => {
                first.insert(key, fragment);
            }
        }
    }
}

/// Responses keyed by the program index in their id (`<letter><index>`).
fn by_index(resps: Vec<Response>) -> impl Iterator<Item = (usize, Response)> {
    resps.into_iter().map(|r| {
        let p =
            r.id.as_deref()
                .and_then(|id| id.get(1..)?.parse().ok())
                .unwrap_or(usize::MAX);
        (p, r)
    })
}

fn field(resp: &Response, key: &str) -> u64 {
    resp.result
        .as_ref()
        .and_then(|r| r.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Latencies (ms) of the `ok` hits that overlapped no miss — from due
/// to response, no miss was in flight — and of the `ok` misses. A hit
/// that waited behind a compile is in neither: it is in the per-layer
/// `serve.hit_*` figures.
fn split_latencies(samples: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    let ok = || samples.iter().filter(|s| s.resp.ok);
    let misses: Vec<&Sample> = ok().filter(|s| !s.resp.cached).collect();
    let clean = |h: &&Sample| misses.iter().all(|m| m.done <= h.due || m.sent >= h.done);
    (
        ok().filter(|s| s.resp.cached)
            .filter(clean)
            .map(Sample::latency_ms)
            .collect(),
        misses.iter().map(|m| m.latency_ms()).collect(),
    )
}

/// The serve layer metrics from the traced half (`stats` holds what the
/// daemon counted during it). Every hit and miss counts here, including
/// hits that waited behind a compile.
fn report_layers(out: &mut Outcome, samples: &[Sample], stats: &Telemetry) {
    let ms = |f: fn(&Sample) -> f64, cached: bool| -> Vec<f64> {
        let ok = samples
            .iter()
            .filter(|s| s.resp.ok && s.resp.cached == cached);
        ok.map(f).collect()
    };
    let service: fn(&Sample) -> f64 = |s| s.resp.micros as f64 / 1e3;
    let wait: fn(&Sample) -> f64 = |s| s.latency_ms() - s.resp.micros as f64 / 1e3;
    let (hits, misses) = (ms(Sample::latency_ms, true), ms(Sample::latency_ms, false));
    let (hit_tail, miss_tail) = (tail(&hits), tail(&misses));
    out.notes.push(format!(
        "serve hit tail is p{} of {} samples, miss tail p{} of {}",
        hit_tail.percentile, hit_tail.samples, miss_tail.percentile, miss_tail.samples
    ));
    let l = &mut out.layers;
    l.insert("serve.hit_p50_ms", median(&hits));
    l.insert("serve.hit_tail_ms", hit_tail.value);
    l.insert("serve.miss_p50_ms", median(&misses));
    l.insert("serve.miss_tail_ms", miss_tail.value);
    l.insert("serve.hit_service_ms", median(&ms(service, true)));
    l.insert("serve.miss_service_ms", median(&ms(service, false)));
    l.insert("serve.hit_wait_ms", median(&ms(wait, true)));
    l.insert("serve.miss_wait_ms", median(&ms(wait, false)));
    let late = samples
        .iter()
        .map(|s| lateness(s.due, s.sent).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    l.insert("loadgen.late_ms", late);
    l.insert(
        "serve.peak_depth",
        stats.counter("serve.overload.peak_depth") as f64,
    );
    l.insert(
        "remap.ns_per_eval",
        ratio(
            stats.span("remap") as f64,
            stats.counter("remap.evaluations") as f64,
        ),
    );
    out.caches(stats);
}

/// The counters and spans `after` gained since `before`; the high-water
/// counters (`*peak*`) keep their value in `after`.
fn since(before: &Telemetry, after: &Telemetry) -> Telemetry {
    let mut t = Telemetry::new();
    for (k, &v) in after.counters() {
        let v = if k.contains("peak") {
            v
        } else {
            v.saturating_sub(before.counter(k))
        };
        t.set_counter(k, v);
    }
    for (k, &ns) in after.spans() {
        t.span_ns(k, ns.saturating_sub(before.span(k)));
    }
    t
}

/// A `stats` frame as telemetry.
fn stats(sock: &Path) -> io::Result<Telemetry> {
    let resp = pipelined(sock, &[request_plain("stats", "stats")])?.remove(0);
    let report = resp
        .stats
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no stats frame"))?;
    let mut t = Telemetry::new();
    for (k, v) in &report.counters {
        t.set_counter(k, *v);
    }
    for (k, v) in &report.spans_ns {
        t.span_ns(k, *v);
    }
    Ok(t)
}

/// The daemon's set-up: start it, connect, ping.
fn bring_up(sock: &Path, workers: usize) -> io::Result<ServerHandle> {
    let handle = start_daemon(sock, workers)?;
    let pong = pipelined(sock, &[request_plain("ping", "ping")])?;
    if pong[0].kind.as_deref() != Some("pong") {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no pong"));
    }
    Ok(handle)
}

fn stop(handle: ServerHandle) -> io::Result<()> {
    handle.shutdown();
    handle.join().map(|_| ())
}

/// Run serve-open.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    // Each set-up repetition brings up its own daemon on its own socket;
    // all but the last are stopped once set-up has been timed.
    let mut daemons: Vec<(PathBuf, io::Result<ServerHandle>)> = Vec::new();
    let (texts, setup) = repeat_setup(|| {
        let (texts, gen_ms) = build_pool();
        let sock = ctx.out_dir.join(format!(
            "serve-{}-{}.sock",
            std::process::id(),
            daemons.len()
        ));
        let handle = bring_up(&sock, ctx.threads);
        daemons.push((sock, handle));
        (texts, gen_ms)
    });
    out.setup(&setup);
    let mut live = Vec::new();
    for (sock, handle) in daemons {
        live.push((sock, handle?));
    }
    let (sock, handle) = live.pop().expect("one daemon per set-up");
    for (_, h) in live {
        stop(h)?;
    }
    let result = drive(ctx, tracer, &sock, &texts, &mut out);
    stop(handle)?;
    result.map(|()| out)
}

fn drive(
    ctx: &Ctx,
    tracer: &Tracer,
    sock: &Path,
    texts: &[String],
    out: &mut Outcome,
) -> io::Result<()> {
    let mut first: HashMap<usize, String> = HashMap::new();
    // Warm-up: fill the result cache, then compile the hot set once, so
    // the window starts in steady state rather than with a burst of
    // first-touch misses. Fillers are keyed after the pool's programs.
    let fill: Vec<String> = (0..DEFAULT_RESULT_CAPACITY)
        .map(|i| {
            let key = POOL_PROGRAMS + i;
            request_compile_source(&format!("w{key}"), &filler(i), Approach::Select)
        })
        .collect();
    let warm: Vec<String> = (0..HOT_PROGRAMS)
        .map(|p| request_compile_source(&format!("w{p}"), &texts[p], Approach::Select))
        .collect();
    // A few at a time, so the warm-up does not set the queue's peak depth.
    for lines in fill.chunks(FILL_CHUNK).chain([&warm[..]]) {
        let keyed = by_index(pipelined(sock, lines)?);
        check_results(out, "warm-up", keyed, &mut first);
    }

    let window = if ctx.trace {
        ctx.half_window()
    } else {
        ctx.window
    };
    let n = (RATE_PER_S * window.as_secs_f64()).round() as usize;
    let picks = schedule(ctx.seed, n, 0);
    let (_, samples) = open_loop(sock, texts, &picks, "r")?;
    let resolve = |samples: &[Sample]| -> Vec<(usize, Response)> {
        samples
            .iter()
            .map(|s| (s.program, s.resp.clone()))
            .collect()
    };
    check_results(out, "serve", resolve(&samples).into_iter(), &mut first);
    // The miss capacity: cold compiles per second the daemon's workers
    // sustain, from the service time (`micros`) of the window's misses.
    let miss_us: Vec<f64> = samples
        .iter()
        .filter(|s| s.resp.ok && !s.resp.cached)
        .map(|s| s.resp.micros as f64)
        .collect();
    out.e2e.insert(
        "work_per_s",
        ratio(
            1e6 * (ctx.threads * miss_us.len()) as f64,
            miss_us.iter().sum(),
        ),
    );
    // The end-to-end latencies are the misses': a hit's ~2 ms is mostly
    // request parsing and thread wake-ups, whose speed on a shared host
    // moves by up to 2x between runs. Hits are in the per-layer
    // `serve.hit_*` figures.
    let (hit_ms, miss_ms) = split_latencies(&samples);
    out.latency(&miss_ms);
    let hits = samples.iter().filter(|s| s.resp.cached).count();
    out.notes.push(format!(
        "serve: {n} requests at {RATE_PER_S}/s, {hits} hits ({} clear of any miss), {} misses",
        hit_ms.len(),
        n - hits
    ));

    // The fixed reference set: the mibench benchmarks, compiled once
    // (misses) and again (hits that must match byte for byte).
    let names = dra_workloads::benchmark_names();
    let reference: Vec<String> = names
        .iter()
        .map(|b| request_compile_bench(&format!("b-{b}"), b, Approach::Select))
        .collect();
    let mut quality = Quality::default();
    let mut ref_first = HashMap::new();
    for round in 0..2 {
        let resps = pipelined(sock, &reference)?;
        let keyed = resps.into_iter().map(|r| {
            let b =
                r.id.as_deref()
                    .and_then(|id| names.iter().position(|n| id == format!("b-{n}")));
            (b.unwrap_or(usize::MAX), r)
        });
        let keyed: Vec<(usize, Response)> = keyed.collect();
        if round == 0 {
            for (_, r) in &keyed {
                quality.add(&Quality {
                    sim_cycles: field(r, "cycles"),
                    code_bits: field(r, "code_bits"),
                    dyn_set_last_regs: field(r, "dynamic_set_last_regs"),
                    dyn_spills: field(r, "dynamic_spills"),
                });
            }
        } else if keyed.iter().any(|(_, r)| !r.cached) {
            out.problem("serve: a repeated reference request missed the cache");
        }
        check_results(out, "reference", keyed.into_iter(), &mut ref_first);
    }
    quality.report(out);

    if ctx.trace {
        let before = stats(sock)?;
        let picks = schedule(ctx.seed, n, n / COLD_EVERY);
        let (start, traced) = open_loop(sock, texts, &picks, "t")?;
        for (i, s) in traced.iter().enumerate() {
            let root = tracer.record("request", start + s.due, start + s.done, None, i as u64);
            tracer.record("send", start + s.due, start + s.sent, Some(root), i as u64);
        }
        check_results(
            out,
            "traced serve",
            resolve(&traced).into_iter(),
            &mut first,
        );
        let frame = since(&before, &stats(sock)?);
        report_layers(out, &traced, &frame);
        // Tracing adds no work to the daemon; compare the clean-hit medians.
        let median_ns = |ms: &[f64]| (median(ms) * 1e6) as u64;
        out.overhead(
            &[median_ns(&hit_ms)],
            &[median_ns(&split_latencies(&traced).0)],
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold(picks: &[usize]) -> Vec<usize> {
        picks
            .iter()
            .copied()
            .filter(|&p| p >= HOT_PROGRAMS)
            .collect()
    }

    #[test]
    fn schedule_spaces_one_cold_request_per_block() {
        let n = 10 * COLD_EVERY;
        let picks = schedule(7, n, 0);
        assert_eq!(picks.len(), n);
        for block in picks.chunks(COLD_EVERY) {
            assert_eq!(cold(block).len(), 1, "{block:?}");
        }
        assert_eq!(schedule(7, n, 0), picks, "same seed, same schedule");
        assert_ne!(schedule(8, n, 0), picks, "the seed draws the hot picks");
        assert_eq!(
            cold(&schedule(8, n, 0)),
            cold(&picks),
            "misses are seed-free"
        );
        let later = cold(&schedule(7, n, 10));
        assert!(
            later.iter().all(|p| !cold(&picks).contains(p)),
            "no repeats"
        );
    }

    fn sample(due: u64, done: u64, cached: bool) -> Sample {
        let line = format!(
            "{{\"schema\":\"dra-serve-v1\",\"id\":\"x\",\"ok\":true,\"kind\":\"compile\",\
             \"cached\":{cached},\"micros\":1,\"result\":{{}}}}"
        );
        Sample {
            program: 0,
            due: Duration::from_millis(due),
            sent: Duration::from_millis(due),
            done: Duration::from_millis(done),
            resp: Response::parse(&line).expect("valid response"),
        }
    }

    #[test]
    fn hits_that_overlap_a_miss_are_left_out_of_the_clean_set() {
        let samples = [
            sample(100, 400, false),
            sample(0, 2, true),
            sample(200, 402, true),
            sample(399, 401, true),
            sample(450, 453, true),
        ];
        let (hits, misses) = split_latencies(&samples);
        assert_eq!(hits, vec![2.0, 3.0]);
        assert_eq!(misses, vec![300.0]);
    }
}
