#!/usr/bin/env bash
# Prints the two line counts ROADMAP.md tracks, one per line:
#   1. `wc -l` over the .rs files in crates/, layerbench/src and the root
#      src/, tests/ and examples/;
#   2. the count outside tests: the .rs files under crates/, layerbench/src,
#      src/ and examples/, each cut at its first `#[cfg(test)]`, with every
#      tests/ and benches/ directory left out.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates layerbench/src src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l
find crates layerbench/src src examples -name '*.rs' -not -path '*/tests/*' \
    -not -path '*/benches/*' -print0 \
    | xargs -0 awk 'FNR == 1 { cut = 0 } /#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n }' \
    | awk '{ total += $1 } END { print total }'
