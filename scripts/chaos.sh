#!/usr/bin/env bash
# Chaos smoke: the two seeded fault campaigns, run by name in release.
#
# * seeded_chaos_matrix_is_contained (tests/fault_injection.rs): the full
#   benchmark x approach matrix under the seed-3 pipeline fault plan
#   (injected worker panics, per-function alloc/verify failures) plus a
#   96-fault stream-corruption campaign per benchmark. Every fault must
#   be contained and the seed-3 totals match their pinned values.
# * seeded_fault_campaign_is_contained_and_deterministic
#   (tests/serve_overload.rs): deadline storms, queue floods, worker
#   kills and vanishing clients against live daemons, run twice under
#   seed 3. Every request is answered exactly once and both runs agree.
#
# usage: scripts/chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q --release --test fault_injection seeded_chaos_matrix_is_contained
cargo test -q --release --test serve_overload seeded_fault_campaign_is_contained_and_deterministic
echo "chaos OK"
