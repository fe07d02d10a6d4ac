#!/bin/sh
# Refreshes BENCH_calib.json: the §4.1 offline calibration of each machine
# (BenchmarkCoefficientCalibration: 8 microbenchmarks × 4 load levels, each
# a fresh 5 s machine simulation, plus two least-squares fits) with its 32
# configurations run serially (jobs=1) and fanned out over the runner at
# GOMAXPROCS (jobs=max), plus the per-machine speedup of the second over
# the first. The result is bit-identical at either bound; only wall-clock
# differs. On a one-core host the two legs cannot differ, so the file
# records the host's cores and sets "degenerate" when there is one.
# Extra args go to `go test` (e.g. -benchtime=1x for a smoke run,
# -benchtime=5x for stable numbers).
set -e
cd "$(dirname "$0")/.."
out="$PWD/BENCH_calib.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Not piped through tee: a pipeline's status is tee's, and a benchmark
# that fails to run must fail the script.
go test -run='^$' -bench='^BenchmarkCoefficientCalibration$' -benchmem "$@" . \
	> "$tmp" || { cat "$tmp"; exit 1; }
cat "$tmp"

# Parse `BenchmarkName[-P]  iters  <value unit>...` lines into JSON, the
# same scheme as bench_stream.sh, then join each machine's jobs=1 and
# jobs=max rows into a speedup.
awk -v cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
/^Benchmark/ {
	name = $1
	# The -P suffix is GOMAXPROCS; go test omits it when that is 1.
	procs = 1
	if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
	sub(/-[0-9]+$/, "", name)
	line = sprintf("    {\"name\": \"%s\", \"iters\": %s", name, $2)
	for (i = 3; i + 1 <= NF; i += 2) {
		v = $i; u = $(i + 1)
		if (u == "ns/op")          { key = "ns_per_op"; ns[name] = v }
		else if (u == "B/op")      key = "bytes_per_op"
		else if (u == "allocs/op") key = "allocs_per_op"
		else {
			key = u
			gsub(/[^A-Za-z0-9]+/, "_", key)
			key = "metric_" key
		}
		line = line sprintf(", \"%s\": %s", key, v)
	}
	order[++n] = name
	lines[n] = line "}"
}
END {
	m = 0
	for (i = 1; i <= n; i++) {
		name = order[i]
		if (name !~ /\/jobs=1$/) continue
		par = name
		sub(/\/jobs=1$/, "/jobs=max", par)
		if (ns[name] + 0 <= 0 || ns[par] + 0 <= 0) continue
		machine = name
		sub(/^.*machine=/, "", machine)
		sub(/\/.*$/, "", machine)
		sp[++m] = sprintf("    \"%s\": %.3f", machine, ns[name] / ns[par])
	}
	printf "{\n  \"cores\": %d,\n  \"gomaxprocs\": %d,\n", cores, procs
	printf "  \"degenerate\": %s,\n", (cores == 1 ? "true" : "false")
	printf "  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
	printf "  ],\n  \"speedups\": {\n"
	for (i = 1; i <= m; i++) printf "%s%s\n", sp[i], (i < m ? "," : "")
	printf "  }\n}\n"
}' "$tmp" > "$out"
cat "$out"
