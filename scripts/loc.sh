#!/usr/bin/env bash
# Non-test line count of the crates: every `.rs` file under `crates/`
# outside a `tests/` directory, each counted up to its first top-level
# `#[cfg(test)]` line. Prints one number. Simplicity changes report it
# before and after; nothing gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -name '*.rs' -not -path '*/tests/*' | while read -r f; do
  awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f"
done | awk '{s+=$1} END{print s}'
