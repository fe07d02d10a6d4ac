#!/bin/sh
# Refreshes BENCH_numerics.json: the fast-path numerics micro-benchmarks
# (prefix-sum cross-correlation vs the reference bucket loop, incremental
# Gram refit vs the batch reference, raw Gram accumulator ops), the
# end-to-end Figure 2 alignment run, and the four §3.5 per-operation
# overheads (a counter-sampling maintenance op, one online recalibration
# refit, one duty-cycle register read plus write, and one Eq. 3 chip-share
# estimate), with ns/op and allocation counts and the derived ref-vs-fast
# speedups. Extra args go to `go test` (e.g. -benchtime=1x for a smoke
# run, -benchtime=5s for stable numbers).
#
# The script FAILS (exit 1) and leaves BENCH_numerics.json untouched when
# any benchmark fails to run, no benchmark row is reported, or any of the
# four §3.5 overhead rows is missing.
set -e
cd "$(dirname "$0")/.."
out="$PWD/BENCH_numerics.json"
tmp="$(mktemp)"
json="$(mktemp)"
trap 'rm -f "$tmp" "$json"' EXIT

# Not piped through tee: a pipeline's status is tee's, and a benchmark
# that fails to run must fail the script, not write an empty file.
go test -run='^$' -bench='^(BenchmarkCorrelationCurve|BenchmarkRefit)$' \
	-benchmem "$@" ./internal/align/ > "$tmp" || { cat "$tmp"; exit 1; }
go test -run='^$' -bench='^(BenchmarkLeastSquares|BenchmarkGramSolve|BenchmarkGramFold)$' \
	-benchmem "$@" ./internal/linalg/ >> "$tmp" || { cat "$tmp"; exit 1; }
go test -run='^$' \
	-bench='^(BenchmarkFig2AlignmentCrossCorrelation|BenchmarkOverhead(MaintenanceOp|Recalibration|DutyCycleRegister|ChipShareEstimate))$' \
	-benchmem "$@" . >> "$tmp" || { cat "$tmp"; exit 1; }
cat "$tmp"

# Parse `BenchmarkName[-P]  iters  <value unit>...` lines into JSON. The
# unit pairs cover ns/op, B/op, allocs/op and any ReportMetric extras;
# GOMAXPROCS suffixes are stripped so names are host-independent.
awk -v cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns[name] = ""
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
	lines[++n] = line "}"
}
function speedup(refname, fastname,   r, f) {
	r = ns[refname] + 0; f = ns[fastname] + 0
	if (r <= 0 || f <= 0) return "null"
	return sprintf("%.3f", r / f)
}
END {
	if (n == 0) {
		print "FAIL: no benchmark rows parsed" > "/dev/stderr"
		exit 1
	}
	split("BenchmarkOverheadMaintenanceOp BenchmarkOverheadRecalibration " \
		"BenchmarkOverheadDutyCycleRegister BenchmarkOverheadChipShareEstimate", required, " ")
	for (i in required) {
		if (!(required[i] in ns)) {
			printf "FAIL: %s reported no row\n", required[i] > "/dev/stderr"
			exit 1
		}
	}
	printf "{\n  \"cores\": %d,\n  \"benchmarks\": [\n", cores
	for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
	printf "  ],\n  \"speedups\": {\n"
	printf "    \"correlation_curve_samples_1000\": %s,\n", \
		speedup("BenchmarkCorrelationCurve/path=ref/samples=1000", \
			"BenchmarkCorrelationCurve/path=fast/samples=1000")
	printf "    \"correlation_curve_samples_10000\": %s,\n", \
		speedup("BenchmarkCorrelationCurve/path=ref/samples=10000", \
			"BenchmarkCorrelationCurve/path=fast/samples=10000")
	printf "    \"refit\": %s,\n", \
		speedup("BenchmarkRefit/path=ref", "BenchmarkRefit/path=fast")
	printf "    \"least_squares_vs_gram_solve\": %s\n", \
		speedup("BenchmarkLeastSquares", "BenchmarkGramSolve")
	printf "  }\n}\n"
}' "$tmp" > "$json" || { cat "$json"; exit 1; }
cat "$json" > "$out"
cat "$out"
