#!/usr/bin/env bash
# A/A check: two interleaved sets (A,B,A,B,...) of runs of the same binary,
# every run with its own seed. For each workload x end-to-end metric prints
# both medians, the quartiles, each set's spread (IQR / median), the relative
# gap of B against A in the metric's worse direction, and the bound from
# BENCHMARK.json. Exits non-zero when a gap or a spread exceeds its bound
# (setup_s spread is reported only), or when a run is not correct.
#
# usage: benchmark/aa.sh [runs-per-set (default 5, at least 5)] [workload ...]
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
[ "$#" -gt 0 ] && shift
if [ "$runs" -lt 5 ]; then
    echo "aa.sh: at least 5 runs per set" >&2
    exit 2
fi
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    workloads=(plan-cold replan-warm events-revisit events-churn serve-mixed)
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pcf-perf"
mkdir -p benchmark/out
log="benchmark/out/aa-$(date +%Y%m%d-%H%M%S).jsonl"

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            seed=$((2 * i - 1))
            [ "$set" = B ] && seed=$((2 * i))
            result=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
            echo "{\"workload\": \"$w\", \"set\": \"$set\", \"seed\": $seed, \"result\": $result}" >>"$log"
            echo "$w $set seed $seed done" >&2
        done
    done
done

python3 - "$log" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
status = 0
print(f"{'workload':<15}{'metric':<15}{'median A':>14}{'median B':>14}"
      f"{'q1..q3 A':>26}{'spread A':>9}{'spread B':>9}{'gap B/A':>9}{'bound':>8}")
for w in dict.fromkeys(r["workload"] for r in rows):
    for m in bench["end_to_end"]:
        vals = {s: [r["result"]["metrics"][m["name"]]["value"] for r in rows
                    if r["workload"] == w and r["set"] == s] for s in "AB"}
        med = {s: statistics.median(v) for s, v in vals.items()}
        q = {s: statistics.quantiles(v, n=4) for s, v in vals.items()}
        spread = {s: (q[s][2] - q[s][0]) / med[s] for s in "AB"}
        worse = (med["B"] - med["A"]) / med["A"]
        if m["better"] == "higher":
            worse = -worse
        flag = ""
        if abs(worse) > m["bound"]:
            flag = "  GAP OVER BOUND"
        elif m["name"] != "setup_s" and max(spread.values()) > m["bound"]:
            flag = "  SPREAD OVER BOUND"
        if flag:
            status = 1
        print(f"{w:<15}{m['name']:<15}{med['A']:>14.6g}{med['B']:>14.6g}"
              f"{q['A'][0]:>13.6g}..{q['A'][2]:<11.6g}{spread['A']:>9.4f}{spread['B']:>9.4f}"
              f"{worse:>+9.4f}{m['bound']:>8}{flag}")
if bad:
    print(f"{len(bad)} runs were not correct or had failed ops", file=sys.stderr)
    status = 1
print(f"raw results: {sys.argv[1]}")
sys.exit(status)
PY
