#!/usr/bin/env bash
# Pool-width A/B timing of one command: runs it in alternating pairs at
# CLITE_PAR_THREADS=1 and =2 (which arm goes first alternates per pair),
# prints each pair's wall times and their ratio, then the median ratio
# (pool 2 over pool 1; below 1 means pool 2 is faster). The stdout of the
# two arms of every pair must be byte-identical, leaving out the lines
# that match --ignore (for commands that print their own timings).
#
#   scripts/pool_ab.sh [--pairs N] [--aa] [--ignore REGEX] -- CMD [ARG...]
#
# --aa runs both arms at pool 2: an A/A set, whose ratios show the
# host's noise. Example:
#
#   scripts/pool_ab.sh --pairs 12 -- target/release/colocate run --seed 42 \
#       memcached:30 xapian:30 streamcluster
#   scripts/pool_ab.sh --ignore ' ms ' -- target/release/colocate fleet \
#       --nodes 64 --events 256
set -euo pipefail

pairs=10 first_pool=1 ignore='^$.'
while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --aa) first_pool=2; shift ;;
        --ignore) ignore="$2"; shift 2 ;;
        --) shift; break ;;
        *) break ;;
    esac
done
[[ $# -gt 0 ]] || { echo "usage: $0 [--pairs N] [--aa] [--ignore REGEX] -- CMD [ARG...]" >&2; exit 2; }

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
# Runs the command at pool width $1 with stdout to $2; prints wall seconds.
timed() {
    local start end
    start="$(date +%s%N)"
    CLITE_PAR_THREADS="$1" "${@:3}" > "$2.raw"
    end="$(date +%s%N)"
    grep -v -e "$ignore" "$2.raw" > "$2" || true
    awk -v ns="$((end - start))" 'BEGIN { printf "%.3f", ns / 1e9 }'
}

echo "pool_ab: $* (pool $first_pool vs pool 2, $pairs pairs)"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        a="$(timed "$first_pool" "$out/a" "$@")"; b="$(timed 2 "$out/b" "$@")"
    else
        b="$(timed 2 "$out/b" "$@")"; a="$(timed "$first_pool" "$out/a" "$@")"
    fi
    if ! cmp -s "$out/a" "$out/b"; then
        echo "pair $i: stdout differs between the arms" >&2
        exit 1
    fi
    echo "pair $i: pool $first_pool ${a}s  pool 2 ${b}s  ratio $(awk -v a="$a" -v b="$b" 'BEGIN { printf "%.3f", b / a }')"
done | tee "$out/pairs"
awk '{ print $NF }' "$out/pairs" | sort -g | awk '{ r[NR] = $1; if ($1 < 1) faster++ }
    END { m = NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
          printf "median ratio %.3f; pool 2 arm faster in %d/%d pairs\n", m, faster, NR }'
