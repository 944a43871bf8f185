#!/usr/bin/env bash
# Tier-1 verification gate, runnable with an empty cargo registry cache
# (the workspace has no external dependencies). See ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "== cargo doc --offline --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

# Optional: CI-scale benchmark smoke + regression gate (quick-mode runs
# of the harness = false bench targets, diffed against the committed
# BENCH_*.json baselines; >25 % median regression on any existing id
# fails — see scripts/bench_diff.sh; refresh baselines with a full
# `cargo bench -p mis-bench`). The same leg re-runs the counting-
# allocator suites explicitly: the zero-allocation guarantees of the
# arena engine (mis-digital) and of the event-queue simulator (mis-sim,
# on the committed C432/C880 fixtures) are performance invariants and
# belong with the perf gate (they also run as part of the workspace
# tests above). The leg also regenerates every committed data/ artifact
# in memory and fails on drift vs the committed bytes
# (make_data --check), and runs the mis-analyze structural linter over
# every committed .bench fixture with --deny-warnings: the fixtures
# must stay diagnostic-clean (no dead logic, unused signals, degenerate
# operands — codes A001–A007, see crates/analyze). Enable with
# CI_BENCH=1.
if [[ "${CI_BENCH:-0}" != "0" ]]; then
    echo "== allocation-counter gate (crates/digital/tests/alloc.rs)"
    cargo test -q -p mis-digital --test alloc --offline
    echo "== allocation-counter gate (crates/sim/tests/alloc.rs)"
    cargo test -q -p mis-sim --test alloc --offline
    echo "== committed-artifact reproducibility gate (make_data --check)"
    cargo run --release -q -p mis-bench --bin make_data --offline -- --check
    echo "== netlist lint gate (lint_bench --deny-warnings data/bench/*.bench)"
    cargo run --release -q -p mis-bench --bin lint_bench --offline -- \
        --deny-warnings data/bench/*.bench
    # The --json line is self-validated by the binary (mis_probe::json);
    # a malformed line exits non-zero and fails this gate.
    cargo run --release -q -p mis-bench --bin lint_bench --offline -- \
        --json data/bench/*.bench > /dev/null
    # Engine-count pinning gate: sim_profile re-simulates each committed
    # fixture under the committed cell library and deterministic traffic
    # (seed base 0x5eed) and compares probe counters against the frozen
    # values below — any drift in event scheduling, duplicate-span
    # shortcuts, table-lookup census, or pulse filtering fails CI. The
    # values were pinned with EXPERIMENTS.md PR 7; re-pin them only with
    # an intentional engine change, via `sim_profile --json <fixture>`.
    echo "== engine-count pinning gate (sim_profile --expect, c17/c432/c880)"
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
        --expect sim.events_popped=6,sim.gates_evaluated=6,sim.heap_high_water=2,sim.edges.input=100,sim.edges.mis=144,chan.pending_cancelled=6,chan.table_lookups=83,chan.pulse_filtered=0 \
        data/bench/c17.bench > /dev/null
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
        --expect sim.events_popped=184,sim.gates_evaluated=184,sim.heap_high_water=36,sim.edges.input=720,sim.edges.mis=830,sim.edges.not=740,chan.pending_cancelled=44,chan.table_lookups=476,chan.pulse_filtered=118 \
        data/bench/c432.bench > /dev/null
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
        --expect sim.events_popped=510,sim.gates_evaluated=510,sim.heap_high_water=95,sim.edges.input=1200,sim.edges.mis=1238,sim.edges.not=1750,chan.pending_cancelled=65,chan.table_lookups=741,chan.pulse_filtered=1424 \
        data/bench/c880.bench > /dev/null
    # Wavefront-engine pinning gate: the same fixtures through the
    # level-sliced engine at 4 workers. Exact-once evaluation means
    # every pinned count above must hold unchanged — the pin sets below
    # are the serial ones minus sim.heap_high_water (a ready-queue
    # metric; the wavefront engine has no heap and reports 0), plus the
    # exact-once schedule gauge (wave.assigned_signals = the fixture's
    # signal count, i.e. replication factor 1.0).
    echo "== wavefront-engine pinning gate (sim_profile --engine wavefront:4)"
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
        --engine wavefront:4 \
        --expect sim.events_popped=6,sim.gates_evaluated=6,sim.edges.input=100,sim.edges.mis=144,chan.pending_cancelled=6,chan.table_lookups=83,chan.pulse_filtered=0,wave.assigned_signals=11 \
        data/bench/c17.bench > /dev/null
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
        --engine wavefront:4 \
        --expect sim.events_popped=184,sim.gates_evaluated=184,sim.edges.input=720,sim.edges.mis=830,sim.edges.not=740,chan.pending_cancelled=44,chan.table_lookups=476,chan.pulse_filtered=118,wave.assigned_signals=220 \
        data/bench/c432.bench > /dev/null
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
        --engine wavefront:4 \
        --expect sim.events_popped=510,sim.gates_evaluated=510,sim.edges.input=1200,sim.edges.mis=1238,sim.edges.not=1750,chan.pending_cancelled=65,chan.table_lookups=741,chan.pulse_filtered=1424,wave.assigned_signals=570 \
        data/bench/c880.bench > /dev/null
    # Fault-coverage pinning gate: fault_sim runs the exhaustive
    # single-stuck-at campaign (plus 24 deterministic glitches on the
    # large fixtures) against the same golden run sim_profile pins event
    # counts on, and compares the fault.* probe counters against the
    # frozen values below. Coverage is a pure function of the netlist,
    # cells and traffic, and the campaign report is identical at every
    # worker count — any drift means detection behavior changed.
    # fault.cone_gates is the campaign's exact work: gates re-evaluated
    # by cone-only replay across all faults (also worker-count
    # independent); drift means the replay's early stop or scheduling
    # changed. Re-pin via `fault_sim --json [--glitches 24] <fixture>`.
    echo "== fault-coverage pinning gate (fault_sim --expect, c17/c432/c880)"
    cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json \
        --expect fault.injected=22,fault.detected=22,fault.budget_trips=0,fault.cone_gates=52 \
        data/bench/c17.bench > /dev/null
    cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 \
        --expect fault.injected=464,fault.detected=356,fault.budget_trips=0,fault.cone_gates=14765 \
        data/bench/c432.bench > /dev/null
    cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 \
        --expect fault.injected=1164,fault.detected=1049,fault.budget_trips=0,fault.cone_gates=24613 \
        data/bench/c880.bench > /dev/null
    # Timeline-tracing smoke: both binaries export a Chrome Trace JSON
    # timeline (self-validated by mis_probe::json::is_wellformed before
    # writing — a malformed export exits non-zero and fails this gate),
    # and sim_profile additionally joins the timeline against the
    # static level table (per-level attribution + level.* histograms).
    # The byte-level format pin lives in crates/sim/tests/trace.rs
    # (golden C17 chrome trace, timestamp-normalized).
    echo "== timeline-tracing smoke (sim_profile/fault_sim --trace)"
    trace_scratch="$(mktemp -d)"
    trap 'rm -rf "$trace_scratch"' EXIT
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- \
        --trace "$trace_scratch/c17.trace.json" data/bench/c17.bench > /dev/null
    cargo run --release -q -p mis-bench --bin fault_sim --offline -- \
        --trace "$trace_scratch/c17.fault.trace.json" data/bench/c17.bench > /dev/null
    # Wavefront timeline smoke: C432's wide early fronts (peak 36 > the
    # default cutover) must fan out in the export — per-worker par.w<i>
    # gate-span tracks and the coordinator's per-level "level" spans.
    cargo run --release -q -p mis-bench --bin sim_profile --offline -- \
        --engine wavefront:4 --trace "$trace_scratch/c432.wave.trace.json" \
        data/bench/c432.bench > /dev/null
    grep -q '"par\.w0"' "$trace_scratch/c432.wave.trace.json"
    grep -q '"par\.w3"' "$trace_scratch/c432.wave.trace.json"
    grep -q '"level"' "$trace_scratch/c432.wave.trace.json"
    # Bench-history smoke: the --history mode appends one self-validated
    # JSON line per committed baseline to a scratch log (the committed
    # trajectory lives in BENCH_HISTORY.jsonl; append a real record with
    # `bench_diff --history BENCH_HISTORY.jsonl --env <tag> BENCH_*.json`
    # whenever the baselines are refreshed).
    echo "== bench-history smoke (bench_diff --history)"
    cargo run --release -q -p mis-bench --bin bench_diff --offline -- \
        --history "$trace_scratch/history.jsonl" --env ci-smoke BENCH_*.json > /dev/null
    # Differential-fuzz smoke: a bounded run of the mis-fault harness
    # (random bounded-channel circuits; serial-vs-parallel and
    # serial-vs-cone-replay bit-identity, faulted-STA soundness,
    # graceful budget trips on both engines).
    # Deterministic per seed, so a failure here reproduces locally with
    # the same command.
    echo "== differential-fuzz smoke (fault_sim --fuzz 16)"
    cargo run --release -q -p mis-bench --bin fault_sim --offline -- \
        --fuzz 16 --workers 4 > /dev/null
    # The C880 benchmark harness is a workspace of its own that drives
    # the library's public API from outside; build and self-test it so
    # an API change cannot silently break the benchmark.
    echo "== benchmark harness self-tests (c880bench)"
    cargo test -q --offline --manifest-path c880bench/Cargo.toml
    echo "== bench regression gate (scripts/bench_diff.sh)"
    scripts/bench_diff.sh
fi

echo "tier-1 gate: OK"
