#!/bin/sh
# Refreshes BENCH_stream.json: the streaming attribution engine's ingest
# benchmark — virtual ticks and meter samples consumed per wall second,
# with per-tick allocation counts — plus the durability layer's recovery
# benchmark (ms to resume from checkpoint + WAL).
#
# BenchmarkStreamIngest always runs a fixed 300 ticks (-benchtime=300x),
# where its allocs/op is deterministic, and the script FAILS (exit 1) when
# that exceeds the ceiling below: the facility hot path's allocation gate,
# which CI enforces. There is no ns/op gate. It also fails when either
# benchmark reports no row. A failing run leaves BENCH_stream.json
# untouched. Extra args go to `go test` for BenchmarkStreamRecover (e.g.
# -benchtime=1x for a smoke run, -benchtime=5s for stable numbers).
set -e
cd "$(dirname "$0")/.."
out="$PWD/BENCH_stream.json"
tmp="$(mktemp)"
json="$(mktemp)"
trap 'rm -f "$tmp" "$json"' EXIT

# Ingest allocations per tick at -benchtime=300x.
ingest_allocs_ceiling=231

# Not piped through tee: a pipeline's status is tee's, and a benchmark
# that fails to run must fail the script, not pass an empty gate.
go test -run='^$' -bench='^BenchmarkStreamIngest$' -benchtime=300x \
	-benchmem ./internal/stream/ > "$tmp" || { cat "$tmp"; exit 1; }
go test -run='^$' -bench='^BenchmarkStreamRecover$' \
	-benchmem "$@" ./internal/stream/ >> "$tmp" || { cat "$tmp"; exit 1; }
cat "$tmp"

# Parse `BenchmarkName[-P]  iters  <value unit>...` lines into JSON, the
# same scheme as bench_numerics.sh: ns/op, B/op, allocs/op plus the
# benchmark's ReportMetric extras (ticks/sec, samples/sec, samples/tick,
# recovery-ms); GOMAXPROCS suffixes are stripped so names are
# host-independent. Then apply the ingest allocation gate.
awk -v cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" \
	-v ceiling="$ingest_allocs_ceiling" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	line = sprintf("    {\"name\": \"%s\", \"iters\": %s", name, $2)
	for (i = 3; i + 1 <= NF; i += 2) {
		v = $i; u = $(i + 1)
		if (u == "ns/op")          key = "ns_per_op"
		else if (u == "B/op")      key = "bytes_per_op"
		else if (u == "allocs/op") { key = "allocs_per_op"; if (name == "BenchmarkStreamIngest") ingest = v }
		else {
			key = u
			gsub(/[^A-Za-z0-9]+/, "_", key)
			key = "metric_" key
		}
		line = line sprintf(", \"%s\": %s", key, v)
	}
	lines[++n] = line "}"
	if (name == "BenchmarkStreamRecover") recovered = 1
}
END {
	fails = 0
	if (ingest == "") {
		print "FAIL: BenchmarkStreamIngest reported no allocs/op" > "/dev/stderr"
		fails++
	} else if (ingest + 0 > ceiling + 0) {
		printf "FAIL: BenchmarkStreamIngest allocates %s objects per tick (ceiling %s)\n", ingest, ceiling > "/dev/stderr"
		fails++
	}
	if (!recovered) {
		print "FAIL: BenchmarkStreamRecover reported no row" > "/dev/stderr"
		fails++
	}
	printf "{\n  \"cores\": %d,\n  \"ingest_allocs_ceiling\": %d,\n  \"benchmarks\": [\n", cores, ceiling
	for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
	printf "  ]\n}\n"
	exit (fails > 0 ? 1 : 0)
}' "$tmp" > "$json" || { cat "$json"; exit 1; }
cat "$json" > "$out"
cat "$out"
