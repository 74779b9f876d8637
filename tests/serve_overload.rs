//! End-to-end tests of the daemon's overload machinery over real
//! sockets: deadline shed for requests that expire while queued,
//! admission-control shed with priority lanes, cooperative mid-compile
//! cancellation, worker supervision (restart + `worker-lost` answer for
//! the orphaned request), the client-side backoff loop actually
//! recovering from a shed, and a seeded fault campaign that runs four
//! failure scenarios twice and requires identical outcomes.

use dra_core::lowend::Approach;
use dra_core::serve::{
    request_compile_source, serve, BackoffPolicy, JobSpec, Priority, Request, Response, ServeAddr,
    ServeClient, ServeConfig, Wire,
};
use dra_core::session::result_key;
use dra_core::telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A `dra-serve-v2` source compile line with an optional deadline and a
/// priority.
fn v2_line(
    id: &str,
    source: &str,
    approach: Approach,
    deadline_ms: Option<u64>,
    priority: Priority,
) -> String {
    Request::Compile {
        id: id.to_string(),
        approach,
        spec: JobSpec::Source(source.to_string()),
        deadline_ms,
        priority,
    }
    .to_line(Wire::V2)
}

fn chaos_config(workers: usize, queue_cap: usize) -> ServeConfig {
    let mut config = ServeConfig::new(ServeAddr::Tcp("127.0.0.1:0".to_string()));
    config.workers = workers;
    config.queue_cap = queue_cap;
    config.setup.remap_starts = 16;
    config.setup.remap_threads = 1;
    config
}

/// A crc32 variant whose result key lands on `shard` of `workers`.
fn source_for_shard(tag: &str, shard: usize, workers: usize) -> String {
    let base = dra_workloads::benchmark("crc32").to_string();
    for nonce in 0u64..10_000 {
        let s = format!("{base}\n; overload {tag}-{nonce}\n");
        if (result_key("src", &s, Approach::Select)[0] % workers as u64) as usize == shard {
            return s;
        }
    }
    unreachable!("no nonce found for shard {shard}/{workers}")
}

/// Spin until `counter` reaches `at_least` on a dedicated stats client.
fn wait_for_counter(addr: &ServeAddr, counter: &str, at_least: u64) {
    let mut client = ServeClient::connect_with_retry(addr, Duration::from_secs(5)).unwrap();
    for _ in 0..15_000 {
        let resp = client.stats("sync").unwrap();
        let got = resp
            .stats
            .as_ref()
            .and_then(|t| t.counters.get(counter))
            .copied()
            .unwrap_or(0);
        if got >= at_least {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {counter} >= {at_least}");
}

#[test]
fn deadline_expiring_while_queued_is_shed_without_compiling() {
    let mut config = chaos_config(1, 8);
    config.faults.stall_request_ids.insert("wedge".to_string());
    let gate = Arc::clone(&config.stall_gate);
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut client = ServeClient::connect(&addr).expect("connect");

    // Wedge the only worker (no deadline on the wedge itself).
    let wedge_src = source_for_shard("wedge", 0, 1);
    client
        .send_line(&request_compile_source("wedge", &wedge_src, Approach::Select))
        .unwrap();
    wait_for_counter(&addr, "serve.requests", 1);

    // Queue a request with a deadline that lapses while it waits.
    let doomed_src = source_for_shard("doomed", 0, 1);
    client
        .send_line(&v2_line(
            "doomed",
            &doomed_src,
            Approach::Select,
            Some(30),
            Priority::Interactive,
        ))
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    gate.store(true, Ordering::SeqCst);

    // Responses in dequeue order: the wedge compiles, the doomed job is
    // shed with a retryable deadline error.
    let wedge = client.recv_response().unwrap();
    assert!(wedge.ok, "wedge should compile: {}", wedge.raw);
    let doomed = client.recv_response().unwrap();
    assert!(!doomed.ok);
    let (kind, message) = doomed.error.clone().expect("structured error");
    assert_eq!(kind, "deadline");
    assert!(doomed.retryable, "deadline sheds must be retryable");
    assert!(message.contains("while queued"), "message: {message}");

    handle.shutdown();
    let telemetry = handle.join().expect("clean shutdown");
    assert_eq!(telemetry.counter("serve.deadline.shed_queued"), 1);
    assert_eq!(telemetry.counter("serve.deadline.with_deadline"), 1);
    // Shed at dequeue means the pipeline never ran for it.
    assert_eq!(telemetry.counter("serve.ok"), 1);
}

#[test]
fn deadline_expiring_mid_service_cancels_at_a_checkpoint() {
    let mut config = chaos_config(1, 8);
    config.faults.stall_request_ids.insert("slow".to_string());
    let gate = Arc::clone(&config.stall_gate);
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut client = ServeClient::connect(&addr).expect("connect");

    // The stalled request carries its own deadline: dequeued in time,
    // wedged past it, it must cancel at the first checkpoint after
    // release instead of compiling a result nobody can use.
    let src = source_for_shard("slow", 0, 1);
    client
        .send_line(&v2_line(
            "slow",
            &src,
            Approach::Select,
            Some(100),
            Priority::Interactive,
        ))
        .unwrap();
    wait_for_counter(&addr, "serve.requests", 1);
    std::thread::sleep(Duration::from_millis(250));
    gate.store(true, Ordering::SeqCst);

    let resp = client.recv_response().unwrap();
    assert!(!resp.ok);
    let (kind, message) = resp.error.clone().expect("structured error");
    assert_eq!(kind, "deadline");
    assert!(resp.retryable);
    assert!(message.contains("mid-compile"), "message: {message}");

    handle.shutdown();
    let telemetry = handle.join().expect("clean shutdown");
    assert_eq!(telemetry.counter("serve.deadline.cancelled"), 1);
    assert_eq!(telemetry.counter("serve.ok"), 0);
}

#[test]
fn admission_control_sheds_batch_before_interactive() {
    let mut config = chaos_config(1, 1);
    config.faults.stall_request_ids.insert("wedge".to_string());
    let gate = Arc::clone(&config.stall_gate);
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut client = ServeClient::connect(&addr).expect("connect");

    client
        .send_line(&request_compile_source(
            "wedge",
            &source_for_shard("wedge", 0, 1),
            Approach::Select,
        ))
        .unwrap();
    wait_for_counter(&addr, "serve.requests", 1);

    // cap=1: one batch job queues, the second is shed immediately; an
    // interactive job still fits the 2x reserve.
    let lines = [
        ("b1", Priority::Batch),
        ("b2", Priority::Batch),
        ("i1", Priority::Interactive),
    ];
    for (i, (id, priority)) in lines.iter().enumerate() {
        client
            .send_line(&v2_line(
                id,
                &source_for_shard(&format!("adm-{i}"), 0, 1),
                Approach::Select,
                None,
                *priority,
            ))
            .unwrap();
    }
    // Only the shed can answer while the worker is wedged.
    let shed = client.recv_response().unwrap();
    assert_eq!(shed.id.as_deref(), Some("b2"));
    let (kind, message) = shed.error.clone().expect("structured error");
    assert_eq!(kind, "overloaded");
    assert!(shed.retryable, "overload sheds must be retryable");
    assert!(message.contains("queue is full"), "message: {message}");

    gate.store(true, Ordering::SeqCst);
    // Everything admitted completes: wedge, then i1 (priority lane),
    // then b1.
    let mut ids: Vec<String> = (0..3)
        .map(|_| {
            let r = client.recv_response().unwrap();
            assert!(r.ok, "admitted job failed: {}", r.raw);
            r.id.unwrap()
        })
        .collect();
    ids.sort();
    assert_eq!(ids, ["b1", "i1", "wedge"]);

    handle.shutdown();
    let telemetry = handle.join().expect("clean shutdown");
    assert_eq!(telemetry.counter("serve.overload.shed"), 1);
    assert_eq!(telemetry.counter("serve.overload.shed_interactive"), 0);
    assert_eq!(telemetry.counter("serve.overload.admitted"), 3);
    assert!(telemetry.counter("serve.overload.peak_depth") <= 2);
}

#[test]
fn killed_worker_is_restarted_and_the_request_answered() {
    let mut config = chaos_config(2, 8);
    config.faults.kill_request_ids.insert("kill".to_string());
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    // Warm the cache on shard 0, then kill shard 0's worker.
    let warm_src = source_for_shard("warm", 0, 2);
    let warm = client
        .request(&request_compile_source("warm", &warm_src, Approach::Select))
        .unwrap();
    assert!(warm.ok && !warm.cached);

    let kill_src = source_for_shard("kill", 0, 2);
    let killed = client
        .request(&request_compile_source("kill", &kill_src, Approach::Select))
        .unwrap();
    assert!(!killed.ok);
    let (kind, message) = killed.error.clone().expect("structured error");
    assert_eq!(kind, "worker-lost");
    assert!(killed.retryable, "worker-lost must be retryable");
    assert!(message.contains("restarted"), "message: {message}");

    // The replacement worker serves the same shard with the same cache.
    let again = client
        .request(&request_compile_source("again", &warm_src, Approach::Select))
        .unwrap();
    assert!(again.ok, "replacement worker must serve: {}", again.raw);
    assert!(again.cached, "shard cache must survive the restart");

    client.shutdown("done").unwrap();
    let telemetry = handle.join().expect("clean shutdown");
    assert_eq!(telemetry.counter("serve.worker_restarts"), 1);
    assert_eq!(telemetry.counter("serve.worker_lost_requests"), 1);
}

#[test]
fn backoff_client_recovers_from_a_shed() {
    let mut config = chaos_config(1, 1);
    config.faults.stall_request_ids.insert("wedge".to_string());
    let gate = Arc::clone(&config.stall_gate);
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut filler = ServeClient::connect(&addr).expect("connect");

    filler
        .send_line(&request_compile_source(
            "wedge",
            &source_for_shard("wedge", 0, 1),
            Approach::Select,
        ))
        .unwrap();
    wait_for_counter(&addr, "serve.requests", 1);
    // Fill the batch lane so the backoff client's first attempt sheds.
    filler
        .send_line(&v2_line(
            "filler",
            &source_for_shard("filler", 0, 1),
            Approach::Select,
            None,
            Priority::Batch,
        ))
        .unwrap();
    wait_for_counter(&addr, "serve.dispatched", 2);

    // Open the gate shortly after the first (shed) attempt so a retry
    // finds room.
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        gate.store(true, Ordering::SeqCst);
    });

    let mut client = ServeClient::connect(&addr).expect("connect");
    let policy = BackoffPolicy {
        attempts: 8,
        base_ms: 40,
        cap_ms: 400,
        seed: 7,
    };
    let line = v2_line(
        "retry",
        &source_for_shard("retry", 0, 1),
        Approach::Select,
        None,
        Priority::Batch,
    );
    let resp = client.request_with_backoff(&line, &policy).unwrap();
    assert!(
        resp.ok,
        "backoff should eventually get through: {}",
        resp.raw
    );
    opener.join().unwrap();

    handle.shutdown();
    let telemetry = handle.join().expect("clean shutdown");
    // At least one attempt was shed before one was admitted.
    assert!(telemetry.counter("serve.overload.shed") >= 1);
    assert_eq!(telemetry.counter("serve.errors"), 0);
}

#[test]
fn queued_requests_are_drained_or_answered_at_shutdown() {
    // Shutdown with jobs still queued behind a wedged worker: the drain
    // must still answer every admitted request (workers finish the
    // queue after the accept loop closes it).
    let mut config = chaos_config(1, 8);
    config.faults.stall_request_ids.insert("wedge".to_string());
    let gate = Arc::clone(&config.stall_gate);
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut client = ServeClient::connect(&addr).expect("connect");

    client
        .send_line(&request_compile_source(
            "wedge",
            &source_for_shard("wedge", 0, 1),
            Approach::Select,
        ))
        .unwrap();
    wait_for_counter(&addr, "serve.requests", 1);
    for i in 0..3 {
        client
            .send_line(&request_compile_source(
                &format!("queued-{i}"),
                &source_for_shard(&format!("q-{i}"), 0, 1),
                Approach::Select,
            ))
            .unwrap();
    }
    wait_for_counter(&addr, "serve.dispatched", 4);
    handle.shutdown();
    gate.store(true, Ordering::SeqCst);

    let mut seen = Vec::new();
    for _ in 0..4 {
        let r = client.recv_response().unwrap();
        assert!(r.ok, "drained job failed: {}", r.raw);
        seen.push(r.id.unwrap());
    }
    seen.sort();
    assert_eq!(seen, ["queued-0", "queued-1", "queued-2", "wedge"]);
    handle.join().expect("clean shutdown");
}

#[test]
fn shard_targeted_sources_land_where_aimed() {
    for workers in [2usize, 3] {
        for shard in 0..workers {
            let s = source_for_shard("t", shard, workers);
            assert_eq!(
                (result_key("src", &s, Approach::Select)[0] % workers as u64) as usize,
                shard
            );
            dra_ir::parse::parse_program(&s).expect("nonce comment must stay parseable");
        }
    }
}

/// One fault scenario's outcome. Every field is schedule-invariant:
/// workers are wedged behind the stall gate while admission decisions
/// happen on one pipelined connection.
#[derive(Debug, Default, PartialEq)]
struct Outcome {
    requests: usize,
    ok: u64,
    shed_overload: u64,
    shed_deadline: u64,
    worker_lost: u64,
    worker_restarts: u64,
}

/// Tally `responses` against the `sent` ids: every id answered exactly
/// once, no unknown id, and every error a retryable `overloaded`,
/// `deadline` or `worker-lost` answer.
fn tally(name: &str, sent: &[String], responses: &[Response], restarts: u64) -> Outcome {
    assert_eq!(responses.len(), sent.len(), "{name}: response count");
    let mut out = Outcome {
        requests: sent.len(),
        worker_restarts: restarts,
        ..Outcome::default()
    };
    let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
    for r in responses {
        let id = r.id.as_deref().unwrap_or_else(|| panic!("{name}: no id: {}", r.raw));
        assert!(sent.iter().any(|s| s == id), "{name}: never-sent id {id:?}");
        *seen.entry(id).or_insert(0) += 1;
        if r.ok {
            out.ok += 1;
            continue;
        }
        match r.error.as_ref().map(|(k, _)| k.as_str()) {
            Some("overloaded") => out.shed_overload += 1,
            Some("deadline") => out.shed_deadline += 1,
            Some("worker-lost") => out.worker_lost += 1,
            other => panic!("{name}: unexpected error kind {other:?}: {}", r.raw),
        }
        assert!(r.retryable, "{name}: shed response not retryable: {}", r.raw);
    }
    for id in sent {
        assert_eq!(seen.get(id.as_str()), Some(&1), "{name}: id {id:?} answer count");
    }
    out
}

fn recv_n(client: &mut ServeClient, n: usize) -> Vec<Response> {
    (0..n).map(|_| client.recv_response().unwrap()).collect()
}

/// Both workers wedged on stalled requests while short-deadline jobs
/// queue behind them: every queued job is shed at dequeue, and the
/// wedged jobs, released after their own deadlines, cancel at the first
/// checkpoint. Nothing compiles.
fn deadline_storm(seed: u64) -> (Outcome, Telemetry) {
    let mut config = chaos_config(2, 8);
    let gate = Arc::clone(&config.stall_gate);
    let stall_ids = ["storm-stall-0", "storm-stall-1"];
    config.faults.stall_request_ids.extend(stall_ids.map(String::from));
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut client = ServeClient::connect(&addr).expect("connect");
    let mut sent = Vec::new();
    for (si, id) in stall_ids.iter().enumerate() {
        let src = source_for_shard(&format!("{seed:x}-storm-stall{si}"), si, 2);
        let line =
            v2_line(id, &src, Approach::Select, Some(400), Priority::Interactive);
        client.send_line(&line).unwrap();
        sent.push(id.to_string());
    }
    // Both workers hold their stalled jobs (counted at dequeue), so the
    // flood queues strictly behind them.
    wait_for_counter(&addr, "serve.requests", 2);
    for i in 0..6 {
        let id = format!("storm-flood-{i}");
        let src = source_for_shard(&format!("{seed:x}-storm-flood-{i}"), 0, 1);
        let line =
            v2_line(&id, &src, Approach::Select, Some(40), Priority::Interactive);
        client.send_line(&line).unwrap();
        sent.push(id);
    }
    // Let every deadline lapse, then open the gate.
    thread::sleep(Duration::from_millis(600));
    gate.store(true, Ordering::SeqCst);
    let responses = recv_n(&mut client, sent.len());
    handle.shutdown();
    let t = handle.join().expect("clean shutdown");
    let out = tally("deadline-storm", &sent, &responses, t.counter("serve.worker_restarts"));
    assert_eq!((out.shed_deadline, out.ok), (8, 0), "deadline-storm: {out:?}");
    assert_eq!(t.counter("serve.deadline.shed_queued"), 6, "deadline-storm");
    assert_eq!(t.counter("serve.deadline.cancelled"), 2, "deadline-storm");
    (out, t)
}

/// More work than the bounded queues accept while the workers are
/// wedged: admission control sheds exactly the overflow, the peak queue
/// depth stays within the interactive reserve, and every admitted job
/// completes once the gate opens.
fn queue_flood(seed: u64) -> (Outcome, Telemetry) {
    let (workers, cap) = (2, 2);
    let mut config = chaos_config(workers, cap);
    let gate = Arc::clone(&config.stall_gate);
    let stall_ids = ["flood-stall-0", "flood-stall-1"];
    config.faults.stall_request_ids.extend(stall_ids.map(String::from));
    let handle = serve(config).expect("bind");
    let addr = handle.addr().clone();
    let mut client = ServeClient::connect(&addr).expect("connect");
    let mut sent = Vec::new();
    for (si, id) in stall_ids.iter().enumerate() {
        let src = source_for_shard(&format!("{seed:x}-flood-stall{si}"), si, workers);
        client
            .send_line(&request_compile_source(id, &src, Approach::Select))
            .unwrap();
        sent.push(id.to_string());
    }
    // Both jobs are out of the queues: admission below is a pure
    // function of send order.
    wait_for_counter(&addr, "serve.requests", 2);
    // Per shard: 6 batch jobs (cap admits 2, sheds 4), then 3
    // interactive (2 fit the 2x reserve, 1 sheds).
    let (mut expect_shed, mut expect_admitted) = (0, 2);
    for si in 0..workers {
        let jobs = (0..6).map(|b| ("batch", b, Priority::Batch));
        for (lane, j, priority) in jobs.chain((0..3).map(|i| ("inter", i, Priority::Interactive))) {
            let id = format!("flood-{lane}-{si}-{j}");
            let src = source_for_shard(&format!("{seed:x}-{id}"), si, workers);
            let line = v2_line(&id, &src, Approach::Select, None, priority);
            client.send_line(&line).unwrap();
            sent.push(id);
            if j < cap {
                expect_admitted += 1;
            } else {
                expect_shed += 1;
            }
        }
    }
    // Sheds are answered from the connection thread at once; with the
    // workers wedged, nothing else can answer before the gate opens.
    let mut responses = recv_n(&mut client, expect_shed);
    for r in &responses {
        let kind = r.error.as_ref().map(|(k, _)| k.as_str());
        assert_eq!(kind, Some("overloaded"), "queue-flood: early answer: {}", r.raw);
    }
    gate.store(true, Ordering::SeqCst);
    responses.extend(recv_n(&mut client, expect_admitted));
    handle.shutdown();
    let t = handle.join().expect("clean shutdown");
    let out = tally("queue-flood", &sent, &responses, t.counter("serve.worker_restarts"));
    assert_eq!(out.shed_overload, expect_shed as u64, "queue-flood: {out:?}");
    assert_eq!(out.ok, expect_admitted as u64, "queue-flood: {out:?}");
    assert!(t.counter("serve.overload.peak_depth") <= (2 * cap) as u64);
    assert_eq!(t.counter("serve.overload.shed_interactive"), 2, "queue-flood");
    (out, t)
}

/// Worker panics that escape the per-request isolation, one per shard:
/// the supervisor answers each orphaned request with `worker-lost`,
/// restarts the worker on the same shard state, and the warm result
/// cache survives.
fn worker_kill(seed: u64) -> (Outcome, Telemetry) {
    let workers = 2;
    let mut config = chaos_config(workers, 8);
    config.faults.kill_request_ids.extend(["kill-0", "kill-1"].map(String::from));
    let handle = serve(config).expect("bind");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let warm: Vec<String> = (0..workers)
        .map(|si| source_for_shard(&format!("{seed:x}-warm-{si}"), si, workers))
        .collect();
    let (mut sent, mut responses) = (Vec::new(), Vec::new());
    let mut request = |id: String, src: &str| {
        let r = client
            .request(&request_compile_source(&id, src, Approach::Select))
            .unwrap();
        sent.push(id);
        responses.push(r.clone());
        r
    };
    for (si, src) in warm.iter().enumerate() {
        let r = request(format!("warm-{si}"), src);
        assert!(r.ok && !r.cached, "worker-kill: warm compile: {}", r.raw);
    }
    for si in 0..workers {
        let src = source_for_shard(&format!("{seed:x}-kill-{si}"), si, workers);
        let r = request(format!("kill-{si}"), &src);
        let kind = r.error.as_ref().map(|(k, _)| k.as_str());
        assert!(kind == Some("worker-lost") && r.retryable, "worker-kill: {}", r.raw);
    }
    for (si, src) in warm.iter().enumerate() {
        let r = request(format!("rewarm-{si}"), src);
        assert!(r.ok && r.cached, "worker-kill: cache lost in restart: {}", r.raw);
    }
    handle.shutdown();
    let t = handle.join().expect("clean shutdown");
    let out = tally("worker-kill", &sent, &responses, t.counter("serve.worker_restarts"));
    let got = (out.worker_restarts, out.worker_lost, out.ok);
    assert_eq!(got, (2, 2, 4), "worker-kill: {out:?}");
    assert_eq!(t.counter("serve.worker_lost_requests"), 2, "worker-kill");
    (out, t)
}

/// A client that hangs up after sending a compile and one that hangs up
/// mid-line: no connection thread panics, the orphaned compile still
/// lands in the cache, and a healthy client is served.
fn client_vanish(seed: u64) -> (Outcome, Telemetry) {
    let handle = serve(chaos_config(1, 4)).expect("bind");
    let addr = handle.addr().clone();
    let orphan_src = source_for_shard(&format!("{seed:x}-orphan"), 0, 1);
    {
        let mut vanisher = ServeClient::connect(&addr).expect("connect");
        let line = request_compile_source("orphan", &orphan_src, Approach::Select);
        vanisher.send_line(&line).unwrap();
        // Dropped here: the socket closes mid-service.
    }
    {
        let ServeAddr::Tcp(tcp) = &addr else {
            panic!("client-vanish: expected a TCP daemon")
        };
        let mut half = std::net::TcpStream::connect(tcp).unwrap();
        std::io::Write::write_all(&mut half, b"{\"schema\":\"dra-serve-v1\",\"id\":\"ha").unwrap();
        // Dropped here: EOF with an unterminated line buffered.
    }
    // The orphan compile has finished and the truncated line is flagged,
    // so the requests below observe a fixed state.
    wait_for_counter(&addr, "serve.ok", 1);
    wait_for_counter(&addr, "serve.truncated", 1);
    let mut client = ServeClient::connect(&addr).expect("connect");
    let ping = client.ping("vanish-ping").unwrap();
    assert!(ping.ok, "client-vanish: ping: {}", ping.raw);
    let line = request_compile_source("vanish-again", &orphan_src, Approach::Select);
    let again = client.request(&line).unwrap();
    assert!(again.ok && again.cached, "client-vanish: orphan not cached: {}", again.raw);
    handle.shutdown();
    let t = handle.join().expect("clean shutdown");
    let sent = ["vanish-ping".to_string(), "vanish-again".to_string()];
    let out = tally("client-vanish", &sent, &[ping, again], t.counter("serve.worker_restarts"));
    assert_eq!(t.counter("serve.conn_panics"), 0, "client-vanish");
    assert_eq!(t.counter("serve.truncated"), 1, "client-vanish");
    assert_eq!(t.counter("serve.ok"), 2, "client-vanish");
    (out, t)
}

/// All four scenarios, each against a fresh daemon: their outcomes and
/// merged counters. `serve.stats_requests` and `serve.lines` are left
/// out: they count this harness's own synchronization polls, whose
/// number depends on wall clock.
fn campaign(seed: u64) -> (Vec<Outcome>, BTreeMap<String, u64>) {
    let mut outcomes = Vec::new();
    let mut merged = Telemetry::new();
    for scenario in [deadline_storm, queue_flood, worker_kill, client_vanish] {
        let (outcome, t) = scenario(seed);
        outcomes.push(outcome);
        merged.merge(&t);
    }
    let mut counters = merged.counters().clone();
    counters.retain(|k, _| k != "serve.stats_requests" && k != "serve.lines");
    (outcomes, counters)
}

/// The seeded serve fault campaign: every scenario's promises hold, and
/// two runs under seed 3 agree on every outcome and counter.
#[test]
fn seeded_fault_campaign_is_contained_and_deterministic() {
    // `recv_response` retries read timeouts forever, so a hung scenario
    // would hang the suite; the watchdog exits the process instead.
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    thread::spawn(move || {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            if start.elapsed() > Duration::from_secs(120) {
                eprintln!("serve fault campaign: watchdog fired after 120 s, a scenario hung");
                std::process::exit(3);
            }
            thread::sleep(Duration::from_millis(50));
        }
    });
    let (outcomes_a, counters_a) = campaign(3);
    let (outcomes_b, counters_b) = campaign(3);
    done.store(true, Ordering::SeqCst);
    assert_eq!(outcomes_a, outcomes_b, "same-seed runs disagree on outcomes");
    assert_eq!(counters_a, counters_b, "same-seed runs disagree on counters");
}
