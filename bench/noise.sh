#!/bin/sh
# Measures how well the benchmark repeats on one commit.
#
#   sh bench/noise.sh
#
# Runs every workload ten times, each time with another --seed, untraced,
# at the gate's --seconds, and prints per workload and end-to-end metric
# the median, the range (max-min)/median and the spread (Q3-Q1)/median,
# quartiles as statistics.quantiles(n=4) gives them. The spread is what
# BENCHMARK.json's bounds are held against: it must stay below a third
# of the metric's bound. Run from the root of a checkout; takes about
# 20 minutes.
set -eu

mkdir -p "$PWD/.bench_build"
log="$PWD/.bench_build/noise.jsonl"
trap 'rm -f "$log"' EXIT
: > "$log"
for workload in scan_heavy slice_heavy template_sweep serve_mixed; do
	for seed in 1 2 3 4 5 6 7 8 9 10; do
		echo "noise: $workload seed $seed" >&2
		sh bench/run.sh --workload "$workload" --seed "$seed" --seconds 24 --trace 0 2>/dev/null |
			tail -n 1 | sed "s/^{/{\"workload\":\"$workload\",\"seed\":$seed,/" >> "$log"
	done
done

python3 - "$log" <<'PY'
import json, statistics, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
print(f"{'workload':<16}{'metric':<14}{'median':>12}{'range':>9}{'spread':>9}  runs")
for workload in dict.fromkeys(r["workload"] for r in rows):
    mine = [r for r in rows if r["workload"] == workload]
    bad = sum(1 for r in mine if not r["correct"] or r["failed"])
    for name in mine[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in mine]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{workload:<16}{name:<14}{med:>12.4f}{(max(vals) - min(vals)) / med:>9.1%}{(q3 - q1) / med:>9.1%}  {len(vals)}" + (f"  ({bad} incorrect)" if bad else ""))
PY
