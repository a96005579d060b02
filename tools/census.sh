#!/bin/sh
# The census: which functions of the module no run reaches, and why each
# of them stays.
#
#   sh tools/census.sh
#
# Run from the root of a checkout. It builds coverage-instrumented
# binaries of the benchmark (bench/), cmd/mahif-bench and the six
# examples, runs each gate workload untraced and traced, every paper
# experiment at smoke scale and every example, all with GOMAXPROCS=2
# (the parallel-scan paths depend on the worker count), and merges what
# they covered. Every function left at exactly 0.0 % must have a line
# in tools/census.txt that gives one of six reasons it stays (oracle,
# error, api, paper, gate, seam; the file's header defines them).
#
# It exits 1 and names each unreached function that has no line, and
# each line whose reason is not one of the six. Listed functions that
# some run now reaches are printed but do not fail it: timing-dependent
# paths differ between machines. Everything it writes goes to one
# temporary directory, removed on exit; the committed BENCH_*.json
# files are not touched. The builds and runs take about a minute on
# two cores.
set -eu
export LC_ALL=C

root="$PWD"
list="$root/tools/census.txt"
test -f "$list" || { echo "census: run from the root of the checkout" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" "$tmp/log" "$tmp/run"

# The module settings bench/run.sh builds with.
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
cover="-cover -coverpkg=github.com/mahif/mahif/..."

go build -C bench $cover -o "$tmp/bin/bench" .
go build $cover -o "$tmp/bin/mahif-bench" ./cmd/mahif-bench
examples="audit batch quickstart retailer session taxi"
for e in $examples; do
	go build $cover -o "$tmp/bin/example-$e" "./examples/$e"
done

# run NAME BINARY ARGS... runs one binary in the temporary directory
# with its own coverage directory and log.
run() {
	name="$1"
	shift
	mkdir "$tmp/cov/$name"
	if ! (cd "$tmp/run" && GOMAXPROCS=2 TMPDIR="$tmp/run" GOCOVERDIR="$tmp/cov/$name" \
		"$@" > "$tmp/log/$name" 2>&1); then
		echo "census: run $name failed:" >&2
		tail -20 "$tmp/log/$name" >&2
		exit 2
	fi
}

for w in scan_heavy slice_heavy template_sweep serve_mixed; do
	for t in 0 1; do
		run "$w-trace$t" "$tmp/bin/bench" -tmp "$tmp/run" \
			--workload "$w" --seed 1 --seconds 24 --trace "$t"
	done
done
run mahif-bench "$tmp/bin/mahif-bench" -exp all -quick -rows 2000 -updates 5,20 \
	-clusterout "$tmp/run/cluster.json" -howtoout "$tmp/run/howto.json" \
	-persistout "$tmp/run/persist.json" -templateout "$tmp/run/template.json"
for e in $examples; do
	run "example-$e" "$tmp/bin/example-$e"
done

dirs="$(ls -d "$tmp"/cov/* | paste -sd, -)"
go tool covdata func -i="$dirs" > "$tmp/func.txt"

# Rows at exactly 0.0 % (10.0 % ends in the same text), keyed by file
# and function: "github.com/mahif/mahif/path/file.go:LINE:" becomes
# "path/file.go".
awk -F'\t+' '$NF == "0.0%" {
	sub(/^github\.com\/mahif\/mahif\//, "", $1); sub(/:[0-9]+:$/, "", $1)
	print $1 "\t" $2
}' "$tmp/func.txt" | sort -u > "$tmp/unreached"
grep -vE '^#|^$' "$list" | cut -f1,2 | sort -u > "$tmp/listed"

total="$(grep -c '\.go:' "$tmp/func.txt")"
echo "census: $total functions, $(wc -l < "$tmp/unreached") at 0.0 %, statements $(awk '/^total/ { print $NF }' "$tmp/func.txt")"

bad="$(grep -vE '^#|^$' "$list" | awk -F'\t' 'NF < 3 || $3 !~ /^(oracle|error|api|paper|gate|seam)$/' || true)"
if [ -n "$bad" ]; then
	echo "census: lines of tools/census.txt without one of the six reasons:" >&2
	echo "$bad" >&2
	exit 1
fi
reached="$(comm -13 "$tmp/unreached" "$tmp/listed")"
if [ -n "$reached" ]; then
	echo "census: listed, but reached by a run (not an error):"
	echo "$reached" | sed 's/^/  /'
fi
missing="$(comm -23 "$tmp/unreached" "$tmp/listed")"
if [ -n "$missing" ]; then
	echo "census: unreached and not in tools/census.txt:" >&2
	echo "$missing" | sed 's/^/  /' >&2
	exit 1
fi
