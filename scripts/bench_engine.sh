#!/bin/sh
# Refreshes BENCH_engine.json: the simulation engine's raw-speed benchmark —
# events dispatched per wall second on the timing-wheel engine (rows named
# path=arena, after the engine's former slot arena) vs the retained
# container/heap reference path (path=ref), across load shapes (batch =
# quantum-aligned mass simultaneity, the simulator's real workload shape;
# jitter = uniform random timestamps, the wheel's worst case) and
# pending-set depths. Emits per-row speedup ratios and the headline
# events/sec (load=batch, depth=1024). It also runs the root package's
# BenchmarkMachineTick, the simulated machine's per-event path (one
# 100 ms tick of stream-dense's machine per op, with events/op), always
# at a fixed 50 ticks (-benchtime=50x), where its allocs/op is
# deterministic.
#
# The script FAILS (exit 1) and leaves BENCH_engine.json untouched when
# a benchmark fails to run or reports no row, when any steady-state
# path=arena row reports a non-zero allocs/op — the zero-allocation
# contract CI enforces — when BenchmarkMachineTick's allocs/op exceeds
# the ceiling below, or when run with PC_BENCH_GATE=1 and the headline
# speedup falls below 10x. Extra args go to `go test` (e.g.
# -benchtime=1x for a smoke run, -benchtime=2s for stable numbers); the
# machine tick keeps its fixed count.
set -e
cd "$(dirname "$0")/.."
out="$PWD/BENCH_engine.json"
tmp="$(mktemp)"
json="$(mktemp)"
trap 'rm -f "$tmp" "$json"' EXIT

# Machine-tick allocations per tick at -benchtime=50x: about three per
# request admitted (the request, its container, the container's first
# stage record) at ~54 requests a tick.
tick_allocs_ceiling=170

# Not piped through tee: a pipeline's status is tee's, and a benchmark
# that fails to run must fail the script, not pass an empty gate.
go test -run='^$' -bench='^BenchmarkEngine$' \
	-benchmem "$@" ./internal/sim/ > "$tmp" || { cat "$tmp"; exit 1; }
go test -run='^$' -bench='^BenchmarkMachineTick$' \
	-benchmem "$@" -benchtime=50x . >> "$tmp" || { cat "$tmp"; exit 1; }
cat "$tmp"

# Parse `BenchmarkName[-P]  iters  <value unit>...` lines into JSON, the
# same scheme as bench_stream.sh, then join arena rows with their ref
# counterparts into speedup ratios and apply the allocation gates.
awk -v cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" \
	-v gate="${PC_BENCH_GATE:-0}" -v tick_ceiling="$tick_allocs_ceiling" '
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
	# Per-event path allocation gate.
	tick = "BenchmarkMachineTick"
	if (ns[tick] == "" || alloc[tick] == "") {
		printf "FAIL: no %s row with allocs/op\n", tick > "/dev/stderr"
		fails++
	} else if (alloc[tick] + 0 > tick_ceiling + 0) {
		printf "FAIL: %s reports %s allocs/op, above the ceiling %d\n", tick, alloc[tick], tick_ceiling > "/dev/stderr"
		fails++
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
	printf "{\n  \"cores\": %d,\n  \"tick_allocs_ceiling\": %d,\n", cores, tick_ceiling
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
