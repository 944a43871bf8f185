#!/usr/bin/env bash
# Alternating A/B of the C880 benchmark (c880bench/): a baseline
# revision against the working tree, on every workload BENCHMARK.json
# declares, in one session.
#
# Usage:
#   scripts/c880_ab.sh <rev> [pairs] [seconds]
#
#   <rev>     baseline revision (anything `git rev-parse` accepts)
#   pairs     pairs of runs per workload (default 10)
#   seconds   length of each run (default 20, BENCHMARK.json's run_seconds)
#
# The baseline's tree is exported with `git archive` into
# target/c880_ab/<sha>/ (an export, not a worktree, so a run leaves
# nothing in .git) and its c880bench is built there; the working
# tree's c880bench is built in place. Both builds use the same release
# profile from c880bench/Cargo.toml. Each binary runs from its own
# checkout root, because c880bench reads data/ relative to it.
#
# Each pair runs both sides with one fresh random seed, and the side that
# runs first alternates from pair to pair, so slow host drift hits both
# sides alike. Every run's result line goes to
# target/c880_ab/results.tsv. For each workload and end-to-end metric
# the summary prints each side's median (q1-q3), the ratio change/base
# of the medians, and "better in k of n": the pairs in which the change
# beat the baseline (ties count for neither side). The failed-operation
# totals of both sides close each workload's block.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

if [[ $# -lt 1 || $# -gt 3 ]]; then
    echo "usage: scripts/c880_ab.sh <rev> [pairs] [seconds]" >&2
    exit 2
fi
rev="$1"
pairs="${2:-10}"
seconds="${3:-20}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "c880_ab.sh: pairs must be a positive integer, got '$pairs'" >&2
    exit 2
fi
sha="$(git rev-parse --verify "${rev}^{commit}")"

workloads=(c880-eval-cached c880-eval-inertial c880-campaign)
# The end-to-end metrics of BENCHMARK.json and which way is better.
metrics=(op_us_p50 runs_per_s setup_s peak_rss_mb)
declare -A better=([op_us_p50]=lower [runs_per_s]=higher [setup_s]=lower [peak_rss_mb]=lower)

out="target/c880_ab"
base_root="$out/${sha:0:12}"
if [[ ! -f "$base_root/c880bench/Cargo.toml" ]]; then
    rm -rf "$base_root"
    mkdir -p "$base_root"
    git archive "$sha" | tar -x -C "$base_root"
fi
echo "== building c880bench at ${sha:0:12} (baseline) and in the working tree (change)"
cargo build --quiet --release --offline --manifest-path "$base_root/c880bench/Cargo.toml"
cargo build --quiet --release --offline --manifest-path c880bench/Cargo.toml
base_bin="$(cd "$base_root" && pwd)/c880bench/target/release/c880bench"
change_bin="$(pwd)/c880bench/target/release/c880bench"
change_root="$(pwd)"

results="$out/results.tsv"
printf 'workload\tpair\tside\tseed\tfailed\t%s\n' "${metrics[*]}" | tr ' ' '\t' > "$results"

# run <side> <workload> <seed> <pair>: one benchmark run, appended to
# the results file.
run() {
    local side="$1" workload="$2" seed="$3" pair="$4" bin root line failed row m v
    if [[ "$side" == base ]]; then bin="$base_bin" root="$base_root"; else bin="$change_bin" root="$change_root"; fi
    # A failing run (exit 1) still prints its result line; keep it.
    line="$(cd "$root" && "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)" || true
    failed="$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<< "$line")"
    row="$workload\t$pair\t$side\t$seed\t${failed:-NA}"
    for m in "${metrics[@]}"; do
        v="$(sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p" <<< "$line")"
        row="$row\t${v:-NA}"
    done
    printf '%b\n' "$row" >> "$results"
}

for workload in "${workloads[@]}"; do
    for ((p = 1; p <= pairs; p++)); do
        seed="$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')"
        if ((p % 2)); then order=(base change); else order=(change base); fi
        echo "== $workload pair $p/$pairs (seed $seed, ${order[0]} first)"
        for side in "${order[@]}"; do
            run "$side" "$workload" "$seed" "$p"
        done
    done
done

# Quartiles by linear interpolation between order statistics.
summary() {
    awk -F'\t' -v metrics="${metrics[*]}" \
        -v dirs="$(for m in "${metrics[@]}"; do printf '%s ' "${better[$m]}"; done)" '
    function q(arr, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 < n ? arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo]) : arr[lo]
    }
    function sortn(arr, n,    i, j, t) {
        for (i = 1; i < n; i++)
            for (j = i; j > 0 && arr[j - 1] > arr[j]; j--) { t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t }
    }
    NR == 1 { next }
    {
        w = $1; pr = $2; sd = $3
        if (!(w in seen)) { seen[w] = 1; order[nw++] = w }
        if (!((w, pr) in pairseen)) { pairseen[w, pr] = 1; np[w]++ }
        failed[w, sd] += $5
        for (k = 1; k <= nm; k++) val[w, pr, sd, k] = $(5 + k)
    }
    BEGIN { nm = split(metrics, mname, " "); split(dirs, mdir, " ") }
    END {
        for (i = 0; i < nw; i++) {
            w = order[i]
            printf "\n%s (%d pairs)\n", w, np[w]
            printf "  %-12s %-32s %-32s %-7s %s\n", "metric", "base median (q1-q3)", "change median (q1-q3)", "ratio", "change better in"
            for (k = 1; k <= nm; k++) {
                nb = 0; nc = 0; wins = 0; n = 0
                for (pr = 1; pr <= np[w]; pr++) {
                    b = val[w, pr, "base", k]; c = val[w, pr, "change", k]
                    if (b == "NA" || c == "NA" || b == "" || c == "") continue
                    B[nb++] = b + 0; C[nc++] = c + 0; n++
                    if (mdir[k] == "lower" ? c + 0 < b + 0 : c + 0 > b + 0) wins++
                }
                if (n == 0) { printf "  %-12s no data\n", mname[k]; continue }
                sortn(B, nb); sortn(C, nc)
                bm = q(B, nb, 0.5); cm = q(C, nc, 0.5)
                printf "  %-12s %-32s %-32s %-7.3f %d of %d (%s is better)\n", mname[k],
                    sprintf("%.6g (%.6g-%.6g)", bm, q(B, nb, 0.25), q(B, nb, 0.75)),
                    sprintf("%.6g (%.6g-%.6g)", cm, q(C, nc, 0.25), q(C, nc, 0.75)),
                    bm != 0 ? cm / bm : 0, wins, n, mdir[k]
            }
            printf "  failed operations: base %d, change %d\n", failed[w, "base"], failed[w, "change"]
        }
    }' "$results"
}

echo
echo "== C880 A/B: base ${sha:0:12} vs working tree ($(git rev-parse --short HEAD)$(git diff --quiet HEAD -- || echo '+dirty')), nproc $(nproc), ${seconds} s runs"
summary
