#!/usr/bin/env bash
# Tier-1 verification gate, runnable with an empty cargo registry cache
# (the workspace has no external dependencies). See ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Lockfiles must not drift: a manifest edit that would rewrite either
# lockfile fails here, before any later step rewrites it silently. The
# C880 benchmark harness (c880bench/) is its own workspace with its own
# lockfile, and it is frozen between benchmark changes.
echo "== cargo metadata --locked (workspace and c880bench lockfiles)"
cargo metadata --offline --locked --format-version 1 > /dev/null
cargo metadata --offline --locked --format-version 1 \
    --manifest-path c880bench/Cargo.toml > /dev/null

echo "== cargo fmt --check"
cargo fmt --check

# Code without a runtime caller stays only as a test oracle, as paper
# content or because a lint requires it: every public library item that
# no runtime target uses, as rustc resolves it, must be listed with its
# reason in scripts/pub_audit.allow (see the script's header). It checks
# a marked copy in its own target directory under target/pub_audit/,
# so the main build cache is left alone, and fails if a check fails.
echo "== public items without a runtime caller (scripts/pub_audit.sh)"
scripts/pub_audit.sh

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

# The C880 benchmark harness (its own workspace) drives the library's
# public API from outside: building it here makes an API removal that
# breaks the benchmark fail the default gate, not only CI_BENCH=1.
echo "== cargo build --offline --manifest-path c880bench/Cargo.toml"
cargo build --offline --manifest-path c880bench/Cargo.toml

# Its self-tests include the reconciliation test: the replayed kernel
# sums must fit inside the engine's run time (engine.sched_us >= 0), so
# an engine kernel that drifts from the replayed one fails here.
echo "== benchmark harness self-tests (c880bench)"
cargo test -q --offline --manifest-path c880bench/Cargo.toml

echo "== cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "== cargo doc --offline --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

# Deterministic runtime gates. Every step below runs a release binary
# on committed inputs and compares against frozen values or
# self-validates its output; none is timed, so none is host-dependent.

# Every example and every paper-artifact binary (quick mode) must run
# to completion: they are the runtime callers of the parameter fit
# (`mis_core::fit`, Nelder–Mead), the accuracy experiment and the
# characterization layer, which the unit tests only reach in pieces.
# They are also the runtime callers of the analog reference
# (`mis_analog::transient::simulate`, one fixed solver setting); beyond
# them only tests (tests/pipeline.rs, the reduced Fig. 7 test, the
# analog crate's own) and the model_kernels bench run it.
echo "== examples (cargo run --example, every example)"
for example in examples/*.rs; do
    example="$(basename "$example" .rs)"
    cargo run --release -q --offline --example "$example" > /dev/null
done
echo "== paper artifacts (fig2 fig4-fig8 table1 --quick)"
for artifact in fig2 fig4 fig5 fig6 fig7 fig8 table1; do
    cargo run --release -q -p mis-bench --bin "$artifact" --offline -- --quick > /dev/null
done

# Regenerates every committed data/ artifact in memory and fails on
# drift vs the committed bytes.
echo "== committed-artifact reproducibility gate (make_data --check)"
cargo run --release -q -p mis-bench --bin make_data --offline -- --check

# The mis-analyze structural linter over every committed .bench
# fixture: the fixtures must stay diagnostic-clean (no dead logic,
# unused signals, degenerate operands — codes A001–A007, see
# crates/analyze).
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
# shortcuts, table-lookup census, or pulse filtering fails CI.
# sim.output_digest (FNV-1a over every OUTPUT trace) also fails on a
# moved output edge time that leaves every count unchanged; edge times
# come out of libm, so a digest is pinned per platform. Re-pin
# them only with an intentional engine change, via
# `sim_profile --json <fixture>`.
echo "== engine-count pinning gate (sim_profile --expect, c17/c432/c880, hybrid and inertial cells)"
cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
    --expect sim.events_popped=6,sim.gates_evaluated=6,sim.edges.input=100,sim.edges.mis=148,chan.pending_cancelled=2,chan.table_lookups=79,chan.pulse_filtered=0,sim.output_digest=10389416547872364272 \
    data/bench/c17.bench > /dev/null
cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
    --expect sim.events_popped=184,sim.gates_evaluated=184,sim.edges.input=720,sim.edges.mis=812,sim.edges.not=748,chan.pending_cancelled=47,chan.table_lookups=472,chan.pulse_filtered=92,sim.output_digest=18075339963316914990 \
    data/bench/c432.bench > /dev/null
cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json \
    --expect sim.events_popped=510,sim.gates_evaluated=510,sim.edges.input=1200,sim.edges.mis=1256,sim.edges.not=1792,chan.pending_cancelled=95,chan.table_lookups=789,chan.pulse_filtered=1438,sim.output_digest=11588235492358638794 \
    data/bench/c880.bench > /dev/null
# The same fixtures under --cells inertial (CellLibrary::inertial over
# the committed fallback on every gate, no MIS model), so an output
# change in the engine or the inertial channel fails without the
# cached tables in the path.
cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json --cells inertial \
    --expect sim.events_popped=6,sim.gates_evaluated=6,sim.edges.input=100,sim.edges.mis=0,sim.edges.nand=142,chan.table_lookups=0,chan.pulse_filtered=8,sim.output_digest=11737505322092215259 \
    data/bench/c17.bench > /dev/null
cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json --cells inertial \
    --expect sim.events_popped=184,sim.gates_evaluated=184,sim.edges.input=720,sim.edges.mis=0,sim.edges.nand=124,sim.edges.nor=640,sim.edges.not=748,chan.table_lookups=0,chan.pulse_filtered=218,sim.output_digest=5226888375655841900 \
    data/bench/c432.bench > /dev/null
cargo run --release -q -p mis-bench --bin sim_profile --offline -- --json --cells inertial \
    --expect sim.events_popped=510,sim.gates_evaluated=510,sim.edges.input=1200,sim.edges.mis=0,sim.edges.nand=274,sim.edges.nor=960,sim.edges.not=1794,chan.table_lookups=0,chan.pulse_filtered=1626,sim.output_digest=16614487077986428134 \
    data/bench/c880.bench > /dev/null

# Fault-coverage pinning gate: fault_sim runs the exhaustive
# single-stuck-at campaign (plus 24 deterministic glitches on the
# large fixtures) against the same golden run sim_profile pins event
# counts on, and compares the fault.* probe counters against the
# frozen values below. Coverage is a pure function of the netlist,
# cells and traffic, and the campaign report is identical at every
# worker count — any drift means detection behavior changed.
# fault.cone_gates is the campaign's exact work: gates re-evaluated
# by memo-less cone-only replay across all faults (a spliced replay
# counts the recorded replay's gates, so it is also worker-count
# independent); drift means the replay's early stop or scheduling
# changed. fault.report_digest (FNV-1a over every fault's site, outcome
# and detecting outputs, in fault-list order) also fails when one
# fault's detecting outputs change while every count holds; it is
# identical at every worker count. Re-pin via `fault_sim --json
# [--glitches 24] <fixture>`.
echo "== fault-coverage pinning gate (fault_sim --expect, c17/c432/c880, hybrid and inertial cells)"
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json \
    --expect fault.injected=22,fault.detected=22,fault.budget_trips=0,fault.cone_gates=52,fault.report_digest=1750636178703075620 \
    data/bench/c17.bench > /dev/null
# The same C17 pins with more workers (64) than faults (22): a campaign
# runs at most one worker per fault, and the report does not change.
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json \
    --workers 64 \
    --expect fault.injected=22,fault.detected=22,fault.budget_trips=0,fault.cone_gates=52,fault.report_digest=1750636178703075620 \
    data/bench/c17.bench > /dev/null
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 \
    --expect fault.injected=464,fault.detected=380,fault.budget_trips=0,fault.cone_gates=16798,fault.report_digest=4535761438089587283 \
    data/bench/c432.bench > /dev/null
# The same C432 pins at 1 worker: with several workers a replay may
# find a stuck-at record another worker has not finished, so which
# replays splice depends on the worker count and on scheduling — the
# report and the work count must not.
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 \
    --workers 1 \
    --expect fault.injected=464,fault.detected=380,fault.budget_trips=0,fault.cone_gates=16798,fault.report_digest=4535761438089587283 \
    data/bench/c432.bench > /dev/null
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 \
    --expect fault.injected=1164,fault.detected=1049,fault.budget_trips=0,fault.cone_gates=25056,fault.report_digest=12965115163071488319 \
    data/bench/c880.bench > /dev/null
# The same C880 pins at 1 worker: workers claim faults dynamically,
# so this proves coverage and work are identical at another count.
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 \
    --workers 1 \
    --expect fault.injected=1164,fault.detected=1049,fault.budget_trips=0,fault.cone_gates=25056,fault.report_digest=12965115163071488319 \
    data/bench/c880.bench > /dev/null
# And at 3 workers, where a replay finds a record missing that at 1
# worker it would splice: the pins hold whatever the splice hits.
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 \
    --workers 3 \
    --expect fault.injected=1164,fault.detected=1049,fault.budget_trips=0,fault.cone_gates=25056,fault.report_digest=12965115163071488319 \
    data/bench/c880.bench > /dev/null
# The same campaigns under --cells inertial.
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --cells inertial \
    --expect fault.injected=22,fault.detected=22,fault.budget_trips=0,fault.cone_gates=52,fault.report_digest=1750636178703075620 \
    data/bench/c17.bench > /dev/null
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 --cells inertial \
    --expect fault.injected=464,fault.detected=343,fault.budget_trips=0,fault.cone_gates=14482,fault.report_digest=2380947776392982622 \
    data/bench/c432.bench > /dev/null
cargo run --release -q -p mis-bench --bin fault_sim --offline -- --json --glitches 24 --cells inertial \
    --expect fault.injected=1164,fault.detected=1037,fault.budget_trips=0,fault.cone_gates=24581,fault.report_digest=14117642473326379746 \
    data/bench/c880.bench > /dev/null

# Timeline-tracing smoke: both binaries export a Chrome Trace JSON
# timeline (self-validated by mis_probe::json::is_wellformed before
# writing — a malformed export exits non-zero and fails this gate),
# and sim_profile additionally joins the timeline against the
# static level table (per-level attribution + level.* histograms).
# The byte-level format pin lives in crates/sim/tests/trace.rs
# (golden C17 chrome trace, timestamp-normalized).
echo "== timeline-tracing smoke (sim_profile/fault_sim --trace)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
cargo run --release -q -p mis-bench --bin sim_profile --offline -- \
    --trace "$scratch/c17.trace.json" data/bench/c17.bench > /dev/null
cargo run --release -q -p mis-bench --bin fault_sim --offline -- \
    --trace "$scratch/c17.fault.trace.json" data/bench/c17.bench > /dev/null

# Differential-fuzz smoke: a bounded run of the mis-fault harness
# (random bounded-channel circuits; engine-vs-Network::run and
# serial-vs-cone-replay bit-identity, spliced campaigns vs memo-less
# cone replays with and without an edge budget, faulted-STA
# soundness, graceful budget trips).
# Deterministic per seed, so a failure here reproduces locally with
# the same command.
echo "== differential-fuzz smoke (fault_sim --fuzz 16)"
cargo run --release -q -p mis-bench --bin fault_sim --offline -- \
    --fuzz 16 > /dev/null

# Benchmark correctness run: the frozen C880 benchmark, 1 s per
# workload. It checks every operation it times (eval outputs against
# `Network::run`, campaign reports against a one-worker reference) and
# reports the failures in its result line, so the step passes only on
# exit status 0 and "failed":0. Nothing is timed or compared here.
echo "== benchmark correctness run (c880bench, 1 s per workload)"
for workload in c880-eval-cached c880-eval-inertial c880-campaign; do
    result="$(cargo run --release --offline --quiet --manifest-path c880bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    if ! [[ "$result" =~ \"failed\":0[,}] ]]; then
        echo "c880bench $workload: failed operations: $result" >&2
        exit 1
    fi
done

# Bench-target smoke: every harness = false bench target of mis-bench
# runs once in quick mode, so a bench whose setup panics (say, on
# generated .bench text that fails to parse) fails the default gate.
# A run-to-completion check like the examples step: the harness prints
# its table and writes no file; nothing is compared.
echo "== bench-target smoke (cargo bench -p mis-bench, quick mode)"
TESTKIT_BENCH_QUICK=1 cargo bench -q --offline -p mis-bench > /dev/null

# The opt-in A/B script must not rot between perf changes: every script
# parses, and scripts/ab.sh rejects bad arguments with its usage line
# (exit 2) before it builds or runs anything.
echo "== script syntax and scripts/ab.sh usage"
for script in scripts/*.sh; do
    bash -n "$script"
done
for args in "" "HEAD pairs"; do
    status=0
    # $args unquoted: word splitting makes the argument list.
    usage="$(scripts/ab.sh $args 2>&1)" || status=$?
    if [[ "$status" != 2 || "$usage" != *"usage: scripts/ab.sh <rev> [pairs] [seconds]"* ]]; then
        echo "scripts/ab.sh ${args:-(no arguments)}: want exit 2 and the usage line, got $status: $usage" >&2
        exit 1
    fi
done

# Optional: the performance leg. It re-runs the counting-allocator
# suites explicitly: the zero-allocation guarantees of the arena engine
# (mis-digital) and of the signal-order simulator (mis-sim, on the
# committed C432/C880 fixtures) are performance invariants and belong
# with the perf gate (they also run as part of the workspace tests
# above). Then scripts/ab.sh compares the working tree against its
# parent in one session: HEAD when the tree has uncommitted changes,
# else HEAD~1. Both sides are built from source, every c880bench
# workload and every mis-bench id is run in alternating pairs, and the
# leg fails when a change median is worse than the base median by more
# than BENCHMARK.json's bound (25 % for a bench id), when the change
# fails operations, or when it drops an id. Pairs and seconds are fixed
# here: 10 pairs of 2 s runs take ~2.5 min on 2 vCPUs once both sides
# are built (~3.5 min for the parent's export). A few bench ids are
# bimodal from process to process on a small host and can read past
# their bound on unchanged code: compare a failure with an unchanged
# `scripts/ab.sh HEAD` run before blaming the change. Enable with
# CI_BENCH=1.
if [[ "${CI_BENCH:-0}" != "0" ]]; then
    echo "== allocation-counter gate (crates/digital/tests/alloc.rs)"
    cargo test -q -p mis-digital --test alloc --offline
    echo "== allocation-counter gate (crates/sim/tests/alloc.rs)"
    cargo test -q -p mis-sim --test alloc --offline
    if [[ -n "$(git status --porcelain)" ]]; then base=HEAD; else base=HEAD~1; fi
    echo "== benchmark A/B gate (scripts/ab.sh $base 10 2)"
    scripts/ab.sh "$base" 10 2
fi

echo "tier-1 gate: OK"
