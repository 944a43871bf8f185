#!/usr/bin/env bash
# Alternating A/B of every benchmark in one session: a baseline
# revision against the working tree, on every c880bench workload that
# BENCHMARK.json declares and on every mis-bench micro-bench id. This
# is the workspace's one benchmark comparison and, through
# `CI_BENCH=1 scripts/ci.sh`, its regression gate.
#
# Usage:
#   scripts/ab.sh <rev> [pairs] [seconds]
#
#   <rev>     baseline revision (anything `git rev-parse` accepts)
#   pairs     pairs of runs (default 10)
#   seconds   length of each c880bench run (default 20, BENCHMARK.json's
#             run_seconds)
#
# The baseline's tree is exported with `git archive` into
# target/ab/<sha>/ (an export, not a worktree, so a run leaves nothing
# in .git) and built there; the working tree is built in place. Both
# sides use the same release and bench profiles. Each binary runs from
# its own checkout root, because c880bench reads data/ relative to it.
#
# In each pair both sides run every workload with one fresh random
# seed, then one quick-mode `cargo bench -p mis-bench` each. The side
# that runs first alternates from pair to pair, so slow host drift hits
# both sides alike. Every value becomes one row of
# target/ab/results.tsv: workload or suite, metric or bench id, pair,
# side, value, failed operations (NA for both when a c880bench run
# printed no result line; 0 for a bench id). `bench_diff` then prints
# each side's median (q1-q3), the ratio change/base of the medians,
# "change better in k of n" and the failed totals, and exits 1 when the
# change regressed (see crates/bench/src/bin/bench_diff.rs); this
# script exits with its status.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

usage="usage: scripts/ab.sh <rev> [pairs] [seconds]"
if [[ $# -lt 1 || $# -gt 3 ]]; then
    echo "$usage" >&2
    exit 2
fi
rev="$1"
pairs="${2:-10}"
seconds="${3:-20}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ && "$seconds" =~ ^[1-9][0-9]*$ ]]; then
    echo "ab.sh: pairs and seconds must be positive integers, got '$pairs' and '$seconds'" >&2
    echo "$usage" >&2
    exit 2
fi
sha="$(git rev-parse --verify "${rev}^{commit}")"

workloads=(c880-eval-cached c880-eval-inertial c880-campaign)
# The end-to-end metrics of BENCHMARK.json.
metrics=(op_us_p50 runs_per_s setup_s peak_rss_mb)

out="target/ab"
base_root="$out/${sha:0:12}"
if [[ ! -f "$base_root/c880bench/Cargo.toml" ]]; then
    rm -rf "$base_root"
    mkdir -p "$base_root"
    git archive "$sha" | tar -x -C "$base_root"
fi
base_root="$(cd "$base_root" && pwd)"
change_root="$(pwd)"
echo "== building c880bench and the mis-bench targets at ${sha:0:12} (base) and in the working tree (change)"
for root in "$base_root" "$change_root"; do
    cargo build --quiet --release --offline --manifest-path "$root/c880bench/Cargo.toml"
    cargo bench --quiet --offline --no-run --manifest-path "$root/Cargo.toml" -p mis-bench
done

results="$out/results.tsv"
printf 'group\tid\tpair\tside\tvalue\tfailed\n' > "$results"

# c880 <side> <workload> <seed> <pair>: one benchmark run, one row per
# end-to-end metric.
c880() {
    local side="$1" workload="$2" seed="$3" pair="$4" root line failed m v
    if [[ "$side" == base ]]; then root="$base_root"; else root="$change_root"; fi
    # A failing run (exit 1) still prints its result line; keep it.
    line="$(cd "$root" && c880bench/target/release/c880bench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)" || true
    failed="$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<< "$line")"
    for m in "${metrics[@]}"; do
        v="$(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<< "$line")"
        printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$workload" "$m" "$pair" "$side" "${v:-NA}" "${failed:-NA}"
    done >> "$results"
}

# benches <side> <pair>: one quick-mode run of every mis-bench target,
# one row per `<suite>/<id>  median <ns> ns` table line. A suite that
# fails prints no rows, which bench_diff reports as missing.
benches() {
    local side="$1" pair="$2" root
    if [[ "$side" == base ]]; then root="$base_root"; else root="$change_root"; fi
    (cd "$root" && TESTKIT_BENCH_QUICK=1 cargo bench --quiet --offline -p mis-bench) |
        awk -v pair="$pair" -v side="$side" -v OFS='\t' '
            $2 == "median" && $4 == "ns" {
                i = index($1, "/")
                print substr($1, 1, i - 1), substr($1, i + 1), pair, side, $3, 0
            }' >> "$results" || true
}

for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order=(base change); else order=(change base); fi
    for workload in "${workloads[@]}"; do
        seed="$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')"
        echo "== pair $p/$pairs: $workload (seed $seed, ${order[0]} first)"
        for side in "${order[@]}"; do
            c880 "$side" "$workload" "$seed" "$p"
        done
    done
    echo "== pair $p/$pairs: cargo bench -p mis-bench, quick mode (${order[0]} first)"
    for side in "${order[@]}"; do
        benches "$side" "$p"
    done
done

echo
echo "== A/B: base ${sha:0:12} vs working tree ($(git rev-parse --short HEAD)$(git diff --quiet HEAD -- || echo '+dirty')), nproc $(nproc), ${seconds} s runs"
cargo run --quiet --release --offline -p mis-bench --bin bench_diff -- "$results"
