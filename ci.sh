#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 test suite.
#
#   ./ci.sh          # everything below
#   ./ci.sh quick    # skip the release build (lints + tests only)
#
# Must stay green before every commit. The tier-1 gate (ROADMAP.md) is
# `cargo build --release && cargo test -q`; the fmt and clippy steps keep
# the tree warning-free so regressions stand out.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --all --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --no-deps (warnings denied, own crates only)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p clite-sim -p clite-gp -p clite-bo -p clite -p clite-telemetry \
    -p clite-store -p clite-policies -p clite-cluster -p clite-bench \
    -p clite-faults -p clite-load -p clite-par -p clite-learn -p clite-repro

if [[ "${1:-}" != "quick" ]]; then
    # --workspace: the smoke steps below run the member crates' binaries
    # (colocate, experiments, loadgate), which a root-package build skips.
    step "cargo build --release --workspace"
    cargo build --release --workspace
fi

step "cargo test -q (tier-1)"
cargo test -q

step "cargo test --workspace -q"
cargo test --workspace -q

if [[ "${1:-}" != "quick" ]]; then
    # The workspace run above already covers these in debug; re-run the
    # incremental == scratch equivalences under release optimizations,
    # where thread interleavings and float codegen differ most. (The fleet
    # witnesses also run in the CLITE_PAR_THREADS loop below, at every
    # pool size.)

    # Fleet loop byte-identity (single-lock == any shard count, run ==
    # rerun, incremental == scratch stats) at 256 nodes, with and without
    # injected crashes (which must kill nodes), must hold under release
    # codegen too.
    step "cargo test -p clite-cluster --test fleet --release -q"
    cargo test -p clite-cluster --test fleet --release -q

    step "cargo test -p clite-gp --test incremental --release -q"
    cargo test -p clite-gp --test incremental --release -q

    # The admission path's allocation-free forms (in-place Cholesky solve,
    # one-pass BG/LC performance means) must equal the forms they replaced
    # bit for bit under release float codegen, where they could diverge.
    step "cargo test -p clite-gp --test solve_in_place --release -q"
    cargo test -p clite-gp --test solve_in_place --release -q

    # The climb's batched GP loops run four lanes wide (AVX2) where the
    # CPU has it. Each entry point must return the bits of its body
    # compiled at the baseline target, under the release codegen that
    # vectorizes both (on a CPU without AVX2 this compares baseline with
    # baseline).
    step "cargo test -p clite-gp --release -q lane_identity"
    cargo test -p clite-gp --release -q lane_identity

    step "cargo test -p clite-sim --test mean_perf --release -q"
    cargo test -p clite-sim --test mean_perf --release -q

    # Shared-pool byte-identity at three pool sizes: the determinism suites
    # must produce bit-identical results whether the global pool has one
    # executor (everything inline), two or four.
    # The search suites pin digests recorded from the serial search; the
    # pool's own suites and training cross slot counts 1/2/4/8 in-test.
    for pool_size in 1 2 4; do
        step "byte-identity suite (CLITE_PAR_THREADS=$pool_size, release)"
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-par --release -q
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-bo --test parallel_determinism --release -q
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-bo --lib --release -q optimizer::tests
        # Bound-ordered climb steps == solving every gate survivor, bit
        # for bit (same partition, same f64 bits).
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-bo --test bound_ordered_step --release -q
        # The hyper-grid scan that finishes only its winner == a full fit
        # per grid point, and the one-pass learned ranking == the ranking
        # it replaced, bit for bit (headroom_memo runs in clite-learn's
        # suite below).
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-gp --test hyper_scan --release -q
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-cluster --lib --release -q learned::tests
        # Any pool size == any shard count: the fleet witnesses.
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-cluster --test fleet --release -q
        # Training determinism: same seed => bit-identical weights at
        # any pool size (the suite itself crosses slot counts 1/2/4/8).
        CLITE_PAR_THREADS=$pool_size \
            cargo test -p clite-learn --release -q
    done

    # The observation store's crash-safety (truncated/bit-flipped tail
    # recovery) must hold under release codegen too.
    step "cargo test -p clite-store --release -q"
    cargo test -p clite-store --release -q

    # Chaos hardening: the fault-injection determinism proptests and the
    # controller's degradation ladder must hold under release codegen
    # (the rate-0 byte-identity check is float-codegen-sensitive).
    step "cargo test -p clite-faults --release -q"
    cargo test -p clite-faults --release -q

    step "cargo test -p clite --test chaos --release -q"
    cargo test -p clite --test chaos --release -q

    # End-to-end warm-start smoke test: a second colocate run against the
    # same store path must warm-start from the first run's samples.
    # Between the runs every shard log grows a torn tail: the second run
    # must recover it with a warning on stderr and still hit. Every
    # --store shares one layout (PATH.shard<i>), so a fleet run must then
    # open the same path, at the same shard count.
    step "colocate --store smoke test"
    store_tmp="$(mktemp -d)"
    trap 'rm -rf "$store_tmp"' EXIT
    ./target/release/colocate run --store "$store_tmp/obs.clite" \
        memcached:30 xapian:30 streamcluster > "$store_tmp/first.txt"
    grep -q "store: miss" "$store_tmp/first.txt"
    for shard in "$store_tmp"/obs.clite.shard*; do
        printf 'torn tail garbage' >> "$shard"
    done
    ./target/release/colocate run --store "$store_tmp/obs.clite" \
        memcached:30 xapian:30 streamcluster > "$store_tmp/second.txt" 2>&1
    grep -q "had a corrupt tail" "$store_tmp/second.txt"
    grep -q "store: hit" "$store_tmp/second.txt"
    ./target/release/colocate fleet --nodes 16 --events 8 \
        --store "$store_tmp/obs.clite" > "$store_tmp/fleet_store.txt"
    grep -q "without panic" "$store_tmp/fleet_store.txt"
    # That store has 8 shards: reopening it with 4 must exit 1 and name
    # both counts, not route keys to the wrong shard files.
    shards_status=0
    ./target/release/colocate fleet --nodes 16 --events 8 --shards 4 \
        --store "$store_tmp/obs.clite" > "$store_tmp/fleet_shards.txt" 2>&1 \
        || shards_status=$?
    [[ "$shards_status" -eq 1 ]]
    grep -q "has 8 shards, but 4 were requested" "$store_tmp/fleet_shards.txt"

    # Chaos smoke test: a forced node crash must degrade gracefully —
    # fallback engaged, marker printed, exit 0 — never panic.
    step "colocate --faults smoke test"
    ./target/release/colocate run --faults crash=6 --seed 42 \
        memcached:40 img-dnn:30 streamcluster > "$store_tmp/chaos.txt"
    grep -q "fallback engaged" "$store_tmp/chaos.txt"
    grep -q "chaos: degraded gracefully without panic" "$store_tmp/chaos.txt"
    ./target/release/colocate run --faults default --seed 42 \
        memcached:40 img-dnn:30 streamcluster > "$store_tmp/chaos2.txt"
    grep -q "without panic" "$store_tmp/chaos2.txt"

    # Load-harness regression gate: run the smoke-scale loadtest and diff
    # its tail percentiles against the committed baseline report with
    # loadgate (exit 1 on a p99/p99.9 regression beyond tolerance).
    # loadgate exits 3 when the baseline is missing or unreadable — the
    # bootstrap signal: commit the current report as the new baseline
    # instead of failing the build. Exit 1 (regression) and exit 2
    # (broken current report) still fail CI.
    step "loadtest smoke + loadgate tail-regression gate"
    CLITE_LOAD_REPORT="$store_tmp/load_smoke.json" \
        ./target/release/experiments loadtest --quick --seed 42 > "$store_tmp/loadtest.txt"
    grep -q "CLITE p99 vs equal-share" "$store_tmp/loadtest.txt"
    baseline="results/reports/load_smoke.json"
    gate_status=0
    ./target/release/loadgate "$store_tmp/load_smoke.json" --previous "$baseline" \
        || gate_status=$?
    if [[ "$gate_status" -eq 3 ]]; then
        mkdir -p "$(dirname "$baseline")"
        cp "$store_tmp/load_smoke.json" "$baseline"
        echo "loadgate: bootstrapped baseline at $baseline (commit it)"
    elif [[ "$gate_status" -ne 0 ]]; then
        exit "$gate_status"
    fi

    # Fleet smoke test: stream a crash-laden event trace over a 64-node
    # fleet through the CLI (8 store shards, then 4) — both must finish
    # with the completion marker, never panic.
    step "colocate fleet smoke test"
    ./target/release/colocate fleet --nodes 64 \
        --faults crash_prob=0.35,crash_max=20 > "$store_tmp/fleet.txt"
    grep -q "without panic" "$store_tmp/fleet.txt"
    ./target/release/colocate fleet --nodes 64 --shards 4 \
        --faults crash_prob=0.35,crash_max=20 > "$store_tmp/fleet2.txt"
    grep -q "without panic" "$store_tmp/fleet2.txt"

    # Placement-model training smoke test: fit a smoke-scale model,
    # verify its checksummed round trip (colocate train does both), and
    # serve it through the fleet CLI — the learned path must finish with
    # the completion marker.
    step "colocate train + learned fleet smoke test"
    ./target/release/colocate train --out "$store_tmp/placement.model" \
        --groups 10 --epochs 4 > "$store_tmp/train.txt"
    grep -q "round trip verified" "$store_tmp/train.txt"
    ./target/release/colocate fleet --nodes 64 \
        --placement learned --model "$store_tmp/placement.model" \
        --faults crash_prob=0.35,crash_max=20 > "$store_tmp/fleet_learned.txt"
    grep -q "without panic" "$store_tmp/fleet_learned.txt"

    # Durable-recovery byte-identity: the kill-at-every-event replay
    # sweep at 64 nodes (which must restore checkpoints), journaled sheds,
    # the deadline-bounded burst, and the journal torn-tail/bit-flip
    # proptests must hold under release codegen
    # (the witness comparison is float-codegen-sensitive, like the other
    # identity suites).
    step "cargo test -p clite-cluster --test recovery --release -q"
    cargo test -p clite-cluster --test recovery --release -q

    step "cargo test -p clite-store --test journal_props --release -q"
    cargo test -p clite-store --test journal_props --release -q

    # The fleet wire decoders (checkpoint, journal entry) stay total and
    # canonical on arbitrary and mutated bytes, and all four framed files
    # keep their pinned on-disk bytes.
    step "cargo test -p clite-cluster --test wire_props --release -q"
    cargo test -p clite-cluster --test wire_props --release -q

    step "cargo test -p clite-cluster --test format_pins --release -q"
    cargo test -p clite-cluster --test format_pins --release -q

    # Checkpoints share each node's committed outcome and reuse its
    # memoized bytes: every checkpoint on crash-laden generated traces
    # must round-trip, match a fresh encoding and share, not copy.
    step "cargo test -p clite-cluster --test checkpoint_memo --release -q"
    cargo test -p clite-cluster --test checkpoint_memo --release -q

    # Kill-and-recover CLI smoke test: journal a fleet run, kill it
    # mid-trace, then resume from the journal — the recovered run must
    # report the replayed suffix and still reach the completion marker.
    step "colocate fleet --journal kill-and-recover smoke test"
    journal_tmp="$store_tmp/fleet-journal"
    ./target/release/colocate fleet --nodes 32 --events 12 \
        --journal "$journal_tmp" --kill-after 6 > "$store_tmp/fleet_kill.txt"
    grep -q "fleet: killed after journaling event 6" "$store_tmp/fleet_kill.txt"
    ./target/release/colocate fleet --nodes 32 --events 12 \
        --journal "$journal_tmp" --recover > "$store_tmp/fleet_recover.txt"
    grep -q "recovery: replayed" "$store_tmp/fleet_recover.txt"
    grep -q "without panic" "$store_tmp/fleet_recover.txt"

    # The same with checkpoints before the kill (default cadence 8: seq 8
    # in fleet.ckpt, seq 16 in fleet.ckpt.side), then fleet.ckpt truncated
    # as a kill during its write would leave it: recovery must start from
    # the other copy's checkpoint, not replay from seq 0.
    step "colocate fleet --journal torn-checkpoint recovery smoke test"
    ckpt_journal_tmp="$store_tmp/fleet-journal-ckpt"
    ./target/release/colocate fleet --nodes 32 --events 24 \
        --journal "$ckpt_journal_tmp" --kill-after 18 > "$store_tmp/fleet_kill_ckpt.txt"
    grep -q "fleet: killed after journaling event 18" "$store_tmp/fleet_kill_ckpt.txt"
    truncate -s 5 "$ckpt_journal_tmp/fleet.ckpt"
    ./target/release/colocate fleet --nodes 32 --events 24 \
        --journal "$ckpt_journal_tmp" --recover > "$store_tmp/fleet_recover_ckpt.txt"
    grep -Eq "recovery: replayed .* from checkpoint seq [1-9]" "$store_tmp/fleet_recover_ckpt.txt"
    grep -q "without panic" "$store_tmp/fleet_recover_ckpt.txt"

    # Placement A/B experiment: fails the gate unless the learned ordering
    # matches or beats the heuristic QoS-safe fraction at every scale
    # point with admission within 2 pp.
    step "placement experiment"
    ./target/release/experiments placement --quick --seed 42 > "$store_tmp/placement_exp.txt"
    grep -q "placement: PASS" "$store_tmp/placement_exp.txt"
    # At seed 11 the crash plan kills no heuristic node, so the A/B has
    # nothing to compare: the experiment must say so and exit 0.
    step "placement experiment without heuristic deaths"
    ./target/release/experiments placement --quick --seed 11 > "$store_tmp/placement_exp11.txt"
    grep -q "placement: INCONCLUSIVE" "$store_tmp/placement_exp11.txt"

    # Traced layered-benchmark smoke test on the learned-placement fleet:
    # layerbench checks its own outputs (recovered == uninterrupted run,
    # a waterfall whose layer self times are non-negative and add up)
    # and prints `"correct": true` on its last line only if they hold.
    # The seed-42 checkpoint and journal byte counts are pinned: any change
    # to what a checkpoint or journal entry writes fails here by name. So
    # are the seed-42 call counts of the layers the traced pass estimates
    # by calling again: one candidate ordering per arrival, one headroom
    # prediction per scored candidate with a trace, one hyper-grid fit per
    # search. A cache beside those calls would move them.
    step "layerbench fleet-wide-durable --trace 1 smoke test"
    cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
        --workload fleet-wide-durable --seed 42 --seconds 1 --trace 1 \
        > "$store_tmp/layerbench.txt"
    wide_last="$(tail -n 1 "$store_tmp/layerbench.txt")"
    grep -q '"correct": true' <<< "$wide_last"
    for pin in cluster.checkpoint.calls:375 cluster.checkpoint.bytes:80314636 \
        store.journal.bytes:87099; do
        grep -qF "\"${pin%%:*}\": {\"value\": ${pin##*:}.0," <<< "$wide_last" \
            || { echo "fleet-wide-durable bytes moved: expected $pin"; exit 1; }
    done
    for pin in cluster.order.calls:1482 learn.headroom.calls:594969 gp.fit.calls:1997; do
        grep -qF "\"${pin%%:*}\": {\"value\": ${pin##*:}.0," <<< "$wide_last" \
            || { echo "fleet-wide-durable count moved: expected $pin"; exit 1; }
    done

    # Traced mix-search smoke test: the paper-mix searches must stay
    # correct and keep their per-layer call counts and mean windows to QoS
    # at seed 42 (the gate of refactors that must not change search
    # behaviour). Only a change to which acquisitions are climbed moves
    # `bo.acquisition.calls` alone: skipping the climbs whose suggestion a
    # repair move replaces took it from 4279 to 3755 with every other pin
    # unchanged. Cost-aware search (ROADMAP item 4) is expected to move
    # these counts too; update them then.
    step "layerbench mix-search --trace 1 smoke test"
    cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
        --workload mix-search --seed 42 --seconds 1 --trace 1 \
        > "$store_tmp/layerbench_mix.txt"
    mix_last="$(tail -n 1 "$store_tmp/layerbench_mix.txt")"
    grep -q '"correct": true' <<< "$mix_last"
    for pin in bo.acquisition.calls:3755.0 gp.fit.calls:872.0 gp.extend.calls:3488.0 \
        sim.observe.calls:5074.0 core.windows_to_qos_mean:11.088235294117647; do
        grep -qF "\"${pin%%:*}\": {\"value\": ${pin##*:}," <<< "$mix_last" \
            || { echo "mix-search count moved: expected $pin"; exit 1; }
    done
fi

printf '\nCI green.\n'
