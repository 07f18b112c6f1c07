#!/usr/bin/env bash
# The pairs rule of the `choosing-metrics` guide (§8) in one command:
# run two already-built `benchmark` binaries alternately on one workload,
# swapping which side goes first each pair, so that both sides share every
# slow minute of a shared machine.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10]
#
# PARENT_DIR and CHANGE_DIR are checkouts in which
#   cargo build --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
# has been run.  Pair i runs both sides as the driver does, with
# `--workload WORKLOAD --seed i --seconds 10 --trace 0`.  Printed per side
# and end-to-end metric: median and quartiles, pairs won (ties count for
# neither), and failed/attempted ops.  A gain may be claimed when the
# change wins at least nine tenths of the pairs and the medians differ by
# more than the parent's quartile spread.  Run nothing else meanwhile.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
bin=crates/bench/src/bin/benchmark/target/release/benchmark
for dir in "$parent" "$change"; do
    if [ ! -x "$dir/$bin" ]; then
        echo "error: $dir/$bin is not built" >&2
        exit 2
    fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# One run of one side; its result object is the last line it prints.
run() {
    local side=$1 dir=$2 seed=$3
    (cd "$dir" && "./$bin" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 || true) \
        | tail -n 1 >>"$out/$side"
    echo "pair $seed $side: $(tail -n 1 "$out/$side")" >&2
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
done

awk -v workload="$workload" '
function field(line, name,    rest) {
    if (!match(line, "\"" name "\": *(\\{\"value\": *)?[-+0-9.eE]+")) return "nan"
    rest = substr(line, RSTART, RLENGTH)
    sub(/.*[:{] */, "", rest)
    return rest + 0
}
# Quantile q of v[1..n] (sorted here), linear interpolation between ranks.
function quantile(v, n, q,    i, j, t, h, lo) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    h = 1 + (n - 1) * q; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
BEGIN {
    nm = split("op_p50_s op_p90_s ops_per_s peak_rss_mib setup_s", metric, " ")
    higher["ops_per_s"] = 1
}
{
    side = FILENAME; sub(/.*\//, "", side)
    n[side]++
    attempted[side] += field($0, "attempted"); failed[side] += field($0, "failed")
    for (m = 1; m <= nm; m++) value[side, metric[m], n[side]] = field($0, metric[m])
}
END {
    pairs = n["parent"] < n["change"] ? n["parent"] : n["change"]
    printf "%s: %d pairs, alternating which side runs first\n", workload, pairs
    printf "%-13s %-7s %12s %12s %12s   %s\n", "metric", "side", "q1", "median", "q3", "pairs won"
    for (m = 1; m <= nm; m++) {
        name = metric[m]; won["parent"] = won["change"] = 0
        for (i = 1; i <= pairs; i++) {
            p = value["parent", name, i]; c = value["change", name, i]
            if (p == c) continue
            if ((c < p) != (name in higher)) won["change"]++; else won["parent"]++
        }
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "parent" : "change"
            for (i = 1; i <= pairs; i++) v[i] = value[side, name, i]
            q1 = quantile(v, pairs, 0.25); q2 = quantile(v, pairs, 0.5); q3 = quantile(v, pairs, 0.75)
            printf "%-13s %-7s %12.6g %12.6g %12.6g   %d/%d\n", name, side, q1, q2, q3, won[side], pairs
            if (side == "parent") { pmed = q2; spread = q3 - q1 }
        }
        printf "%-13s %-7s median %+.1f %% of parent; parent quartile spread %.1f %%\n", name, "", (q2 / pmed - 1) * 100, spread / pmed * 100
    }
    printf "failed/attempted ops: parent %d/%d, change %d/%d\n", failed["parent"], attempted["parent"], failed["change"], attempted["change"]
}' "$out/parent" "$out/change"
