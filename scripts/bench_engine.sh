#!/bin/sh
# Refreshes BENCH_engine.json: the simulation engine's raw-speed benchmark —
# events dispatched per wall second on the timing-wheel engine (rows named
# path=arena, after the engine's former slot arena) vs the retained
# container/heap reference path (path=ref), across load shapes (batch =
# quantum-aligned mass simultaneity, the simulator's real workload shape;
# jitter = uniform random timestamps, the wheel's worst case) and
# pending-set depths. Emits per-row speedup ratios and the headline
# events/sec (load=batch, depth=1024).
#
# The script FAILS (exit 1) and leaves BENCH_engine.json untouched when
# the benchmark fails to run or reports no row, when any steady-state
# path=arena row reports a non-zero allocs/op — the zero-allocation
# contract CI enforces — or when run with PC_BENCH_GATE=1 and the
# headline speedup falls below 10x. Extra args go to `go test` (e.g.
# -benchtime=1x for a smoke run, -benchtime=2s for stable numbers).
set -e
cd "$(dirname "$0")/.."
out="$PWD/BENCH_engine.json"
tmp="$(mktemp)"
json="$(mktemp)"
trap 'rm -f "$tmp" "$json"' EXIT

# Not piped through tee: a pipeline's status is tee's, and a benchmark
# that fails to run must fail the script, not pass an empty gate.
go test -run='^$' -bench='^BenchmarkEngine$' \
	-benchmem "$@" ./internal/sim/ > "$tmp" || { cat "$tmp"; exit 1; }
cat "$tmp"

# Parse `BenchmarkName[-P]  iters  <value unit>...` lines into JSON, the
# same scheme as bench_stream.sh, then join arena rows with their ref
# counterparts into speedup ratios and apply the allocation gate.
awk -v cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" \
	-v gate="${PC_BENCH_GATE:-0}" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	line = sprintf("    {\"name\": \"%s\", \"iters\": %s", name, $2)
	ns[name] = ""; alloc[name] = ""; evps[name] = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		v = $i; u = $(i + 1)
		if (u == "ns/op")          { key = "ns_per_op"; ns[name] = v }
		else if (u == "B/op")      key = "bytes_per_op"
		else if (u == "allocs/op") { key = "allocs_per_op"; alloc[name] = v }
		else {
			key = u
			gsub(/[^A-Za-z0-9]+/, "_", key)
			key = "metric_" key
			if (u == "events/sec") evps[name] = v
		}
		line = line sprintf(", \"%s\": %s", key, v)
	}
	order[++n] = name
	lines[n] = line "}"
}
END {
	if (n == 0) {
		print "FAIL: no benchmark rows parsed" > "/dev/stderr"
		exit 1
	}
	fails = 0
	# Zero-allocation contract: every steady-state arena row must report
	# 0 allocs/op (B/op may carry warmup-tail rounding; the gate is on
	# allocation count).
	for (i = 1; i <= n; i++) {
		name = order[i]
		if (name ~ /path=arena/ && alloc[name] != "" && alloc[name] + 0 != 0) {
			printf "FAIL: %s reports %s allocs/op (want 0)\n", name, alloc[name] > "/dev/stderr"
			fails++
		}
	}
	# Speedup ratios: join each arena row with its ref counterpart.
	m = 0
	for (i = 1; i <= n; i++) {
		name = order[i]
		if (name !~ /path=arena/) continue
		refname = name
		sub(/path=arena/, "path=ref", refname)
		if (ns[refname] == "" || ns[name] == "" || ns[name] + 0 == 0) continue
		sp = ns[refname] / ns[name]
		scen = name
		sub(/^[^\/]*\/?/, "", scen)   # drop "BenchmarkEngine/"... keep load/depth
		sub(/path=arena\/?/, "", scen)
		ratios[++m] = sprintf("    {\"scenario\": \"%s\", \"arena_ns_per_event\": %s, \"ref_ns_per_event\": %s, \"speedup\": %.2f}", scen, ns[name], ns[refname], sp)
		if (scen == "load=batch/depth=1024") headline = sp
		if (name ~ /load=batch\/depth=1024/ && evps[name] != "") headline_evps = evps[name]
	}
	if (gate + 0 == 1 && headline != "" && headline < 10) {
		printf "FAIL: headline speedup %.2fx below the 10x gate\n", headline > "/dev/stderr"
		fails++
	}
	printf "{\n  \"cores\": %d,\n", cores
	if (headline != "")      printf "  \"headline_speedup\": %.2f,\n", headline
	if (headline_evps != "") printf "  \"headline_events_per_sec\": %s,\n", headline_evps
	printf "  \"speedups\": [\n"
	for (i = 1; i <= m; i++) printf "%s%s\n", ratios[i], (i < m ? "," : "")
	printf "  ],\n  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
	printf "  ]\n}\n"
	exit (fails > 0 ? 1 : 0)
}' "$tmp" > "$json" || { cat "$json"; exit 1; }
cat "$json" > "$out"
cat "$out"
