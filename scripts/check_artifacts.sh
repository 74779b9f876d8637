#!/usr/bin/env bash
# Committed artifacts check themselves: regenerate every figure and table
# in a temporary directory and require the result to match what is
# committed under results/.
#
# * stdout of table1-3, fig11-14, extensions and `cache_sweep fft` must be
#   byte-identical to results/<name>.txt (results/cache_sweep_fft.txt for
#   the sweep);
# * the `counters` maps of results/telemetry/{fig11-14,table2,table3}.json,
#   of the `drac check` frame (checker.json) and of the corpus frame
#   (corpus.json, from tier-1's smoke commands: `drac profile --builtin
#   embedded-dsp`, then `drac corpus --profile
#   results/profiles/embedded-dsp.json --count 100`) must be identical.
#   Spans are wall clock and are not compared;
# * results/fig13.json must be identical once every `*_nanos` key (wall
#   clock) is removed. It keeps the per-(benchmark, approach) remap work
#   counters `remap_evaluations` and `remap_starts_run`, so any change to
#   the remapping search shows up here.
#
# Usage: scripts/check_artifacts.sh   (from anywhere; exits nonzero on a
# mismatch and prints the first differing lines)
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d /tmp/dra-artifacts-XXXXXX)"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/results/telemetry"
# Table 2-3 size their loop suite from DRA_LOOPS; the artifacts use the default.
unset DRA_LOOPS
# The binaries write results/ relative to the working directory, so the
# committed tree is never touched.
cd "$WORK"

cargo build -q --release --manifest-path "$ROOT/Cargo.toml" -p dra-bench -p dra-core --bins
run() {
  cargo run -q --release --manifest-path "$ROOT/Cargo.toml" -p "$1" --bin "$2" -- "${@:3}"
}

fail=0
compare() {
  if cmp -s "$1" "$ROOT/results/$1"; then
    echo "identical: results/$1"
  else
    echo "DIFFERS: results/$1"
    diff "$ROOT/results/$1" "$1" | head -20 || true
    fail=1
  fi
}

for bin in table1 table2 table3 fig11 fig12 fig13 fig14 extensions; do
  run dra-bench "$bin" > "$bin.txt"
  compare "$bin.txt"
done
run dra-bench cache_sweep fft > cache_sweep_fft.txt
compare cache_sweep_fft.txt
run dra-core drac check > /dev/null
run dra-core drac profile --builtin embedded-dsp > /dev/null
run dra-core drac corpus --profile results/profiles/embedded-dsp.json --count 100 > /dev/null

python3 - "$ROOT/results" "$WORK/results" <<'EOF' || fail=1
import json, sys
committed, fresh = sys.argv[1], sys.argv[2]
bad = 0

def strip_nanos(v):
    if isinstance(v, dict):
        return {k: strip_nanos(x) for k, x in v.items() if not k.endswith("_nanos")}
    if isinstance(v, list):
        return [strip_nanos(x) for x in v]
    return v

want = strip_nanos(json.load(open(f"{committed}/fig13.json")))
got = strip_nanos(json.load(open(f"{fresh}/fig13.json")))
if want == got:
    print("identical without *_nanos: results/fig13.json")
else:
    bad = 1
    print("DIFFERS without *_nanos: results/fig13.json")
    lines = zip(json.dumps(want, indent=1).splitlines(), json.dumps(got, indent=1).splitlines())
    for w, g in [(w, g) for w, g in lines if w != g][:20]:
        print(f"  committed {w.strip()} regenerated {g.strip()}")

for name in ["fig11", "fig12", "fig13", "fig14", "table2", "table3", "checker", "corpus"]:
    want = json.load(open(f"{committed}/telemetry/{name}.json"))["counters"]
    got = json.load(open(f"{fresh}/telemetry/{name}.json"))["counters"]
    if want == got:
        print(f"identical counters: results/telemetry/{name}.json")
        continue
    bad = 1
    print(f"DIFFERS counters: results/telemetry/{name}.json")
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            print(f"  {key}: committed {want.get(key)} regenerated {got.get(key)}")
sys.exit(bad)
EOF

if [ "$fail" -ne 0 ]; then
  echo "committed artifacts are stale or the pipeline changed its output"
  exit 1
fi
echo "artifacts OK"
