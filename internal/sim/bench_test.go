package sim

import (
	"fmt"
	"testing"
)

// Benchmark load shapes. Both keep the pending-event count constant
// (every callback schedules exactly one replacement); they differ in
// how reschedule offsets are drawn:
//
//   - load=batch: offsets are exact multiples of a 64µs quantum, so
//     events pile up on shared boundaries — the way simulated kernel
//     work actually arrives (quantum expiries, sampling periods and
//     request batches coincide). FIFO tie-breaking among simultaneous
//     events is the hot path.
//   - load=jitter: offsets are uniform random ns over a ~1ms horizon —
//     an adversarial spread with no simultaneity at all, the worst
//     case for the wheel's bucket sort and the best case for the
//     reference heap's sift locality.
const (
	benchQuantum = Time(1) << 16 // 65.5µs, ~the kernel scheduling quantum
	benchHorizon = 1<<20 - 1     // ~1ms of lookahead
)

// lcg advances the benchmark's deterministic random state.
func lcg(state uint64) uint64 {
	return state*6364136223846793005 + 1442695040888963407
}

func benchDelta(state uint64, batch bool) Time {
	if batch {
		return (Time(state>>33)&15 + 1) * benchQuantum
	}
	return Time(state>>33)&benchHorizon + 1
}

// BenchmarkEngine measures steady-state event churn: the queue is
// prefilled to a fixed pending-event depth, then every step fires a
// callback that immediately schedules its replacement — the shape of
// every kernel timer, context switch and sampling period in the
// simulator. depth=16 is a single busy machine, depth=1024 a cluster,
// depth=65536 the datacenter scale the ROADMAP targets.
//
// scripts/bench_engine.sh parses this benchmark's output into
// BENCH_engine.json; events/sec at load=batch/depth=1024 is the repo's
// headline engine number, and the engine's rows (path=arena, a name kept
// from the engine's former slot arena) must report 0 allocs/op
// everywhere.
func BenchmarkEngine(b *testing.B) {
	depths := []int{16, 1024, 65536}
	for _, load := range []string{"batch", "jitter"} {
		batch := load == "batch"
		for _, depth := range depths {
			b.Run(fmt.Sprintf("path=arena/load=%s/depth=%d", load, depth), func(b *testing.B) {
				e := NewEngine()
				state := uint64(0x9e3779b97f4a7c15)
				var fn func()
				fn = func() {
					state = lcg(state)
					e.After(benchDelta(state, batch), fn)
				}
				for i := 0; i < depth; i++ {
					e.After(benchDelta(uint64(i)<<33, batch), fn)
				}
				// Steady-state warmup: run until every wheel level has
				// fully rotated so bucket capacities have converged
				// (~16×depth steps covers one level-1 rotation at this
				// horizon).
				for i := 0; i < 32*depth; i++ {
					e.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
		for _, depth := range depths {
			b.Run(fmt.Sprintf("path=ref/load=%s/depth=%d", load, depth), func(b *testing.B) {
				e := newRefEngine()
				state := uint64(0x9e3779b97f4a7c15)
				var fn func()
				fn = func() {
					state = lcg(state)
					e.After(benchDelta(state, batch), fn)
				}
				for i := 0; i < depth; i++ {
					e.After(benchDelta(uint64(i)<<33, batch), fn)
				}
				for i := 0; i < 32*depth; i++ {
					e.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}
