#!/usr/bin/env bash
# Paired A/B runs of layerbench: a parent revision against a change.
#
#   scripts/layerbench_ab.sh [options] PARENT CHANGE OUT.jsonl
#
#     --work DIR        where both revisions are built and their binaries kept
#                       (default: .bench_build under the repository root)
#     --workload W      workload to run; repeat for several
#                       (default: all three)
#     --seeds "S ..."   seeds, one pair of runs each (default: "301 302 303")
#     --seconds S       seconds per run (default: 15)
#     --trace 0|1       untraced or traced runs (default: 0)
#
# PARENT and CHANGE are git revisions. To measure uncommitted work, stage
# it and pass `$(git stash create)` as CHANGE; pass the same revision
# twice for an A/A run.
#
# Both revisions are built in turn at one source path, DIR/src: each is
# exported there with `git archive`, built from clean in release mode, and
# its binary copied to DIR/bin/parent or DIR/bin/change. One path is
# needed because source paths are embedded in the binary: two copies of
# one revision built in DIR/parent and DIR/change, paths of the same
# length, gave binaries of different sizes, while two clean builds at one
# path gave identical ones. When PARENT and CHANGE are the same revision,
# the script compares the two binaries and fails if they differ. A binary
# whose revision has not changed is reused. Every run starts from DIR/run.
# For each workload, the runs of each seed form a pair, and which arm
# runs first alternates from seed to seed. Every run appends one line to
# OUT.jsonl:
#
#   {"arm":"parent","rev":"<sha>","workload":"...","seed":N,"seconds":S,
#    "trace":T,"first":true,"report":<layerbench's JSON line>}

set -euo pipefail

usage() {
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
    exit 2
}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work="$root/.bench_build"
workloads=()
seeds="301 302 303"
seconds=15
trace=0
while [[ $# -gt 0 ]]; do
    case "$1" in
        --work) work=$2; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --seeds) seeds=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --trace) trace=$2; shift 2 ;;
        -h | --help) usage ;;
        -*) echo "layerbench_ab: unknown option $1" >&2; usage ;;
        *) break ;;
    esac
done
[[ $# -eq 3 ]] || usage
[[ ${#workloads[@]} -gt 0 ]] || workloads=(mix-search fleet-dense fleet-wide-durable)
out=$(realpath -m "$3")
mkdir -p "$work" "$(dirname "$out")"
work=$(realpath "$work")

declare -A rev
# Builds revision $2 at $work/src and copies its layerbench to
# $work/bin/$1, unless that binary is already of revision $2.
build() {
    local arm=$1 src=$work/src bin=$work/bin/$1
    rev[$arm]=$(git -C "$root" rev-parse --verify "$2^{commit}")
    if [[ -x "$bin/layerbench" && "$(cat "$bin/.ab-rev" 2>/dev/null)" == "${rev[$arm]}" ]]; then
        echo "layerbench_ab: reusing $arm (${rev[$arm]:0:12}) from $bin" >&2
        return
    fi
    rm -rf "$src" "$bin"
    mkdir -p "$src" "$bin"
    git -C "$root" archive --format=tar "${rev[$arm]}" | tar -x -C "$src"
    echo "layerbench_ab: building $arm (${rev[$arm]:0:12}) in $src" >&2
    cargo build --release --offline --quiet --manifest-path "$src/layerbench/Cargo.toml" \
        --target-dir "$src/layerbench/target"
    cp "$src/layerbench/target/release/layerbench" "$bin/layerbench"
    echo "${rev[$arm]}" >"$bin/.ab-rev"
}

# Runs one arm on one workload and seed, appending its line to $out.
run() {
    local arm=$1 workload=$2 seed=$3 first=$4 line
    echo "layerbench_ab: $workload seed $seed $arm" >&2
    line=$(cd "$work/run" && "../bin/$arm/layerbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    printf '{"arm":"%s","rev":"%s","workload":"%s","seed":%s,"seconds":%s,"trace":%s,"first":%s,"report":%s}\n' \
        "$arm" "${rev[$arm]}" "$workload" "$seed" "$seconds" "$trace" "$first" "$line" >>"$out"
}

build parent "$1"
build change "$2"
if [[ "${rev[parent]}" == "${rev[change]}" ]] &&
    ! cmp -s "$work/bin/parent/layerbench" "$work/bin/change/layerbench"; then
    echo "layerbench_ab: two builds of ${rev[parent]:0:12} differ; the arms are not comparable" >&2
    exit 1
fi
mkdir -p "$work/run"
for workload in "${workloads[@]}"; do
    i=0
    for seed in $seeds; do
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        run "${order[0]}" "$workload" "$seed" true
        run "${order[1]}" "$workload" "$seed" false
        i=$((i + 1))
    done
done
echo "layerbench_ab: appended $(( ${#workloads[@]} * $(wc -w <<<"$seeds") * 2 )) runs to $out" >&2
