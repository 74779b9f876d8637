#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, a build of every
# bench target (`cargo test` builds none of them), one-shot smokes of
# the remap_scaling, remap_ablation, irc and encoding benches (criterion's `--test` mode runs
# each bench body exactly once, so regressions in the bench harnesses,
# the incremental-search plumbing, or the interference-graph
# representations fail CI without paying for a full sweep), the
# perfbench benchmark's own tests (it is a separate workspace built
# against the crates by path, so nothing else here compiles it), the
# committed artifacts check (scripts/check_artifacts.sh, which also runs
# the telemetry, checker, profile and corpus smokes in a temporary
# directory), the fault, serve and overload smokes, and a report of the
# non-test line count (scripts/loc.sh). Nothing here
# writes into the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo bench --no-run
cargo bench --bench remap_scaling -- --test
cargo bench --bench remap_ablation -- --test
cargo bench --bench irc_build -- --test
cargo bench --bench irc_color -- --test
cargo bench --bench encoding -- --test
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Committed artifacts check themselves: every figure and table binary,
# run in a temporary directory, must print exactly its results/*.txt and
# reproduce the committed telemetry counters and profiles. The same run
# is the telemetry smoke (every fresh frame must pass `drac report`), the
# checker smoke (`drac check` over the full benchmark × approach matrix
# must find zero violations) and the corpus smoke (100 generated
# functions from the regenerated embedded-dsp profile must compile with
# zero errors and zero checker violations).
scripts/check_artifacts.sh

# Fault containment: the injection suite end to end, then the decoder
# totality properties by name (the load-bearing "hostile streams never
# panic" guarantee gets its own loud line in CI output).
cargo test -q --test fault_injection
cargo test -q --test fault_injection decoder_is_total
echo "fault containment OK"

# Serve smoke: a resident daemon on a temp Unix socket, driven through
# the dra-serve-v1 line protocol — ping, two identical compiles (the
# second must come from the cross-request result cache), a stats probe
# (which must count the result cache's hit and the remapping search
# cache's lookups), graceful shutdown (asserted by `wait` under `set -e`,
# and by the socket file being cleaned up) — then the telemetry frame the
# daemon wrote on shutdown must be schema-valid.
SOCK="$(mktemp -u /tmp/drac-serve-XXXXXX.sock)"
SMOKE_DIR="$(mktemp -d /tmp/drac-serve-smoke-XXXXXX)"
trap 'rm -rf "$SMOKE_DIR"; rm -f "$SOCK"' EXIT
cargo run -q -p dra-core --release --bin drac -- serve --addr "unix:$SOCK" --workers 2 \
  --telemetry-root "$SMOKE_DIR" > /dev/null &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "serve socket never appeared"; exit 1; }
python3 - "$SOCK" <<'EOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
f = s.makefile("rw")
def rpc(**req):
    f.write(json.dumps(req) + "\n")
    f.flush()
    return json.loads(f.readline())
assert rpc(schema="dra-serve-v1", id="p", kind="ping")["kind"] == "pong"
first = rpc(schema="dra-serve-v1", id="c1", kind="compile", approach="select", bench="crc32")
assert first["ok"] and not first["cached"], first
again = rpc(schema="dra-serve-v1", id="c2", kind="compile", approach="select", bench="crc32")
assert again["ok"] and again["cached"], again
assert again["result"] == first["result"], (first, again)
stats = rpc(schema="dra-serve-v1", id="s", kind="stats")
assert stats["stats"]["counters"]["result_cache.hits"] >= 1, stats
assert stats["stats"]["counters"]["remap_cache.lookups"] >= 1, stats
assert rpc(schema="dra-serve-v1", id="q", kind="shutdown")["kind"] == "bye"
EOF
wait "$SERVE_PID"
[ ! -S "$SOCK" ] || { echo "stale serve socket left behind"; exit 1; }
cargo run -q -p dra-core --release --bin drac -- report "$SMOKE_DIR/results/telemetry/serve.json" > /dev/null
# The committed telemetry directory must validate wholesale — `report`
# discovers every frame, serve included.
cargo run -q -p dra-core --release --bin drac -- report results/telemetry > /dev/null
echo "serve smoke OK"

# Overload smoke: a one-worker daemon with a queue capacity of 1, hit
# with a pipelined flood of 24 batch-priority dra-serve-v2 compiles all
# written before a single response is read. Admission control must
# answer every id exactly once — ok, or a retryable "overloaded" shed —
# shed at least one of them, and still shut down cleanly with the
# socket removed.
OSOCK="$(mktemp -u /tmp/drac-overload-XXXXXX.sock)"
trap 'rm -rf "$SMOKE_DIR"; rm -f "$SOCK" "$OSOCK"' EXIT
cargo run -q -p dra-core --release --bin drac -- serve --addr "unix:$OSOCK" \
  --workers 1 --queue-cap 1 > /dev/null &
OVER_PID=$!
for _ in $(seq 100); do [ -S "$OSOCK" ] && break; sleep 0.1; done
[ -S "$OSOCK" ] || { echo "overload serve socket never appeared"; exit 1; }
python3 - "$OSOCK" <<'EOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
f = s.makefile("rw")
n = 24
for i in range(n):
    f.write(json.dumps({
        "schema": "dra-serve-v2", "id": "flood-%d" % i, "kind": "compile",
        "approach": "select", "bench": "crc32", "priority": "batch",
    }) + "\n")
f.flush()
seen, shed, ok = set(), 0, 0
for _ in range(n):
    resp = json.loads(f.readline())
    rid = resp["id"]
    assert rid.startswith("flood-") and rid not in seen, resp
    seen.add(rid)
    if resp["ok"]:
        ok += 1
        continue
    err = resp["error"]
    assert err["kind"] == "overloaded" and err["retryable"], resp
    shed += 1
assert len(seen) == n, sorted(seen)
assert ok >= 1, "cap-1 queue admitted nothing"
assert shed >= 1, "pipelined flood against a cap-1 queue never shed"
f.write(json.dumps({"schema": "dra-serve-v1", "id": "q", "kind": "shutdown"}) + "\n")
f.flush()
assert json.loads(f.readline())["kind"] == "bye"
EOF
wait "$OVER_PID"
[ ! -S "$OSOCK" ] || { echo "stale overload socket left behind"; exit 1; }
echo "overload smoke OK"

# Size report (not a gate): non-test lines under crates/, the count every
# simplicity change quotes before and after.
echo "non-test lines under crates/: $(scripts/loc.sh)"
