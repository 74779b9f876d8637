//! End-to-end tests of the `dra-serve-v1` protocol: round-trips over
//! real sockets, hostile input (malformed JSON, unknown fields,
//! oversized and truncated lines) always answered with structured
//! errors, per-request panic containment, and the load-bearing
//! determinism claim — concurrent service returns *byte-identical*
//! result objects to sequential service.

use dra_core::lowend::Approach;
use dra_core::serve::{
    request_compile_bench, request_compile_source, serve, Response, ServeAddr, ServeClient,
    ServeConfig,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

fn tcp_config() -> ServeConfig {
    ServeConfig::new(ServeAddr::Tcp("127.0.0.1:0".to_string()))
}

fn unix_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dra-serve-{tag}-{}.sock", std::process::id()))
}

#[test]
fn full_protocol_roundtrip_over_tcp() {
    let mut config = tcp_config();
    config.workers = 2;
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let pong = client.ping("p1").unwrap();
    assert!(pong.ok);
    assert_eq!(pong.kind.as_deref(), Some("pong"));
    assert_eq!(pong.id.as_deref(), Some("p1"));

    let first = client.compile_bench("c1", "crc32", Approach::Select).unwrap();
    assert!(first.ok, "compile failed: {:?}", first.error);
    assert!(!first.cached);
    let result = first.result.as_ref().expect("result object");
    assert!(result.contains_key("cycles"));
    assert!(result.contains_key("code_bits"));

    // Identical job again: served from the cross-request result cache,
    // with an identical result object.
    let again = client.compile_bench("c2", "crc32", Approach::Select).unwrap();
    assert!(again.ok);
    assert!(again.cached, "second identical job should hit the cache");
    assert_eq!(first.result_fragment(), again.result_fragment());

    // Inline source text (multi-line, exercised through JSON escaping).
    let text = dra_workloads::benchmark("fft").to_string();
    let src = client.compile_source("c3", &text, Approach::Coalesce).unwrap();
    assert!(src.ok, "source compile failed: {:?}", src.error);

    let stats = client.stats("s1").unwrap();
    let frame = stats.stats.expect("stats frame");
    assert!(frame.counters.get("serve.requests").copied().unwrap_or(0) >= 3);
    assert!(frame.counters.get("result_cache.hits").copied().unwrap_or(0) >= 1);
    assert_eq!(frame.counters.get("serve.workers"), Some(&2));

    let bye = client.shutdown("q1").unwrap();
    assert!(bye.ok);
    assert_eq!(bye.kind.as_deref(), Some("bye"));
    let telemetry = handle.join().expect("clean shutdown");
    assert!(telemetry.counter("serve.requests") >= 3);
    assert_eq!(telemetry.counter("serve.panics"), 0);
}

#[test]
fn escaped_surrogate_pair_hits_the_raw_utf8_cache_entry() {
    let mut config = tcp_config();
    config.workers = 1;
    config.setup.remap_starts = 16;
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    // A program whose text carries an astral character (in a comment).
    let text = format!("{}; 😀\n", dra_workloads::benchmark("crc32"));
    let raw = client.compile_source("raw", &text, Approach::Select).unwrap();
    assert!(raw.ok && !raw.cached, "{:?}", raw.error);

    // The same text as Python's `json.dumps` sends it: the character as
    // an escaped UTF-16 surrogate pair. The daemon must see the same
    // bytes, so the compile is a result-cache hit.
    let line = request_compile_source("escaped", &text, Approach::Select);
    let escaped_line = line.replace('😀', "\\ud83d\\ude00");
    assert_ne!(escaped_line, line);
    let escaped = client.request(&escaped_line).unwrap();
    assert!(escaped.ok, "{:?}", escaped.error);
    assert!(escaped.cached, "same text must hit the same cache entry");
    assert_eq!(raw.result_fragment(), escaped.result_fragment());

    // Half a pair is malformed JSON, not a replacement character.
    let lone = client.request(&line.replace('😀', "\\ud83d")).unwrap();
    assert_eq!(lone.error.map(|e| e.0).as_deref(), Some("bad-json"));

    assert!(client.shutdown("q").unwrap().ok);
    handle.join().expect("clean shutdown");
}

#[test]
fn hostile_input_gets_structured_errors_not_disconnects() {
    let mut config = tcp_config();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let cases: &[(&str, &str)] = &[
        ("this is not json", "bad-json"),
        ("[1,2,3]", "bad-json"),
        ("{\"schema\":\"dra-serve-v1\",\"id\":\"h1\",\"kind\":\"ping\",\"bogus\":true}", "bad-request"),
        ("{\"schema\":\"dra-serve-v0\",\"id\":\"h2\",\"kind\":\"ping\"}", "bad-request"),
        (
            "{\"schema\":\"dra-serve-v1\",\"id\":\"h3\",\"kind\":\"compile\",\"approach\":\"select\",\"bench\":\"no-such-bench\"}",
            "bad-request",
        ),
        (
            "{\"schema\":\"dra-serve-v1\",\"id\":\"h4\",\"kind\":\"compile\",\"approach\":\"quantum\",\"bench\":\"crc32\"}",
            "bad-request",
        ),
    ];
    for (line, want) in cases {
        let resp = client.request(line).unwrap();
        assert!(!resp.ok, "line should fail: {line}");
        let (kind, _) = resp.error.expect("structured error");
        assert_eq!(&kind, want, "line: {line}");
    }

    // The connection survived all of it: a well-formed job still works.
    let ok = client.compile_bench("h5", "crc32", Approach::Baseline).unwrap();
    assert!(ok.ok, "healthy request after hostile ones: {:?}", ok.error);

    client.shutdown("h6").unwrap();
    handle.join().expect("clean shutdown");
}

/// `01` is not a JSON number, so its line is not JSON; 2^64 is a JSON
/// number but one past `u64::MAX`, so it is no deadline. Neither may be
/// read as some other deadline and compiled.
#[test]
fn malformed_and_out_of_range_deadlines_are_rejected() {
    let mut config = tcp_config();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let line = |id: &str, deadline: &str| {
        format!(
            "{{\"schema\":\"dra-serve-v2\",\"id\":\"{id}\",\"kind\":\"compile\",\
             \"approach\":\"select\",\"bench\":\"crc32\",\"deadline_ms\":{deadline}}}"
        )
    };
    for (id, deadline, want) in [
        ("d1", "01", "bad-json"),
        ("d2", "18446744073709551616", "bad-request"),
    ] {
        let resp = client.request(&line(id, deadline)).unwrap();
        assert!(!resp.ok, "deadline_ms {deadline} was accepted");
        assert_eq!(resp.error.unwrap().0, want, "deadline_ms {deadline}");
    }
    // The same request with a valid deadline compiles.
    let ok = client.request(&line("d3", "60000")).unwrap();
    assert!(ok.ok, "{:?}", ok.error);

    client.shutdown("q").unwrap();
    handle.join().expect("clean shutdown");
}

#[test]
fn oversized_lines_are_rejected_with_a_structured_error() {
    let mut config = tcp_config();
    config.workers = 1;
    config.max_line_bytes = 4096;
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let huge = format!(
        "{{\"schema\":\"dra-serve-v1\",\"id\":\"big\",\"kind\":\"compile\",\"approach\":\"select\",\"source\":\"{}\"}}",
        "x".repeat(8192)
    );
    let resp = client.request(&huge).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_ref().unwrap().0, "oversized");

    handle.shutdown();
    handle.join().expect("clean shutdown");
}

/// A line of 100k `[` is a tenth of the default line cap. It must be
/// answered `bad-json`, not overflow the connection thread's stack, and
/// the same connection must keep working.
#[test]
fn deeply_nested_line_is_bad_json_and_the_connection_survives() {
    let mut config = tcp_config();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    let resp = client.request(&"[".repeat(100_000)).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.error.as_ref().unwrap().0, "bad-json");

    let pong = client.ping("after-deep").unwrap();
    assert_eq!(pong.kind.as_deref(), Some("pong"));

    client.shutdown("q").unwrap();
    handle.join().expect("clean shutdown");
}

#[test]
fn truncated_line_at_eof_gets_a_structured_error() {
    let path = unix_path("trunc");
    let _ = std::fs::remove_file(&path);
    let mut config = ServeConfig::new(ServeAddr::Unix(path.clone()));
    config.workers = 1;
    let handle = serve(config).expect("bind");

    // A raw client that half-sends a request and hangs up.
    let mut raw = UnixStream::connect(&path).expect("connect");
    raw.write_all(b"{\"schema\":\"dra-serve-v1\",\"id\":\"t1\"").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    let resp = Response::parse(reply.trim()).expect("structured response");
    assert!(!resp.ok);
    assert_eq!(resp.error.as_ref().unwrap().0, "truncated");

    handle.shutdown();
    handle.join().expect("clean shutdown");
    // Graceful teardown removes the socket file.
    assert!(!path.exists(), "stale socket file left behind");
}

#[test]
fn worker_panic_is_contained_per_request() {
    let mut config = tcp_config();
    config.workers = 2;
    config.setup.cell_retries = 0;
    config.faults.panic_request_ids.insert("boom".to_string());
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    // The injected panic unwinds inside the worker; the response is a
    // structured error, not a dead socket.
    let blast = client.compile_bench("boom", "crc32", Approach::Select).unwrap();
    assert!(!blast.ok);
    let (kind, message) = blast.error.expect("structured panic report");
    assert_eq!(kind, "panic");
    assert!(message.contains("injected serve fault"), "message: {message}");

    // The pool is still healthy — same connection, same shard space.
    let ok = client.compile_bench("fine", "crc32", Approach::Select).unwrap();
    assert!(ok.ok, "pool should survive a contained panic: {:?}", ok.error);

    client.shutdown("done").unwrap();
    let telemetry = handle.join().expect("clean shutdown");
    assert_eq!(telemetry.counter("serve.panics"), 1);
    assert!(telemetry.counter("serve.ok") >= 1);
}

/// The acceptance-criteria pin: N jobs served concurrently (many
/// clients, many workers) return result objects byte-identical to the
/// same jobs served sequentially on a single worker. Allocation results
/// are pure functions of the input, and the response encoder keeps every
/// schedule-dependent quantity (timing, cache flags) outside the
/// `result` object.
#[test]
fn concurrent_results_are_byte_identical_to_sequential() {
    // Three textually distinct copies of one program (a trailing comment
    // differs), so each is its own cache key but compiles identically.
    let base = dra_workloads::benchmark("crc32").to_string();
    let sources: Vec<String> = (0..3)
        .map(|i| format!("{base}\n; uniq beef-{i}\n"))
        .collect();
    let approaches = [Approach::Select, Approach::Coalesce];
    let mut jobs: Vec<(String, String, Approach)> = Vec::new();
    for (si, src) in sources.iter().enumerate() {
        for &a in &approaches {
            jobs.push((format!("job-{si}-{}", a.label()), src.clone(), a));
        }
    }
    // One benchmark job rides along to cover the bench path too.
    let bench_line = request_compile_bench("job-bench", "qsort", Approach::Adaptive);

    // Sequential reference: one worker, one client, jobs in order.
    let mut config = tcp_config();
    config.workers = 1;
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let mut sequential: BTreeMap<String, String> = BTreeMap::new();
    for (id, src, a) in &jobs {
        let resp = client.request(&request_compile_source(id, src, *a)).unwrap();
        assert!(resp.ok, "{id}: {:?}", resp.error);
        sequential.insert(id.clone(), resp.result_fragment().unwrap().to_string());
    }
    let resp = client.request(&bench_line).unwrap();
    assert!(resp.ok);
    sequential.insert("job-bench".into(), resp.result_fragment().unwrap().to_string());
    client.shutdown("seq-done").unwrap();
    handle.join().expect("clean shutdown");

    // Concurrent run: 4 workers, one client thread per job, all in
    // flight at once against a fresh daemon (cold caches).
    let mut config = tcp_config();
    config.workers = 4;
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut lines: Vec<(String, String)> = jobs
        .iter()
        .map(|(id, src, a)| (id.clone(), request_compile_source(id, src, *a)))
        .collect();
    lines.push(("job-bench".into(), bench_line));
    let threads: Vec<_> = lines
        .into_iter()
        .map(|(id, line)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = ServeClient::connect_with_retry(&addr, Duration::from_secs(5)).unwrap();
                let resp = c.request(&line).unwrap();
                assert!(resp.ok, "{id}: {:?}", resp.error);
                (id, resp.result_fragment().unwrap().to_string())
            })
        })
        .collect();
    let mut concurrent: BTreeMap<String, String> = BTreeMap::new();
    for t in threads {
        let (id, fragment) = t.join().expect("client thread");
        concurrent.insert(id, fragment);
    }
    handle.shutdown();
    handle.join().expect("clean shutdown");

    assert_eq!(sequential, concurrent, "concurrent service must be byte-identical");
}
