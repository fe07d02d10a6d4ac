// Package faults is a deterministic, seeded fault-injection subsystem for
// the attribution pipeline. A Plan describes which faults to inject — meter
// faults (dropouts, spikes, stuck readings, delay jitter, death), counter
// faults (MSR-style wraparound, lost overflow interrupts) and socket-tag
// loss — and every injection decision is a pure function of the plan seed
// and a per-site sample/call index. No wall clock, no shared mutable RNG:
// the same seeded plan replays byte-identically whether an experiment runs
// at -jobs 1 or -jobs N, and regardless of how interleaved the call sites
// are.
//
// Per-site seeds are derived from the plan seed with runner.SeedFor, and
// per-index uniform draws use the same splitmix-style pure hash the power
// meters use for bucket noise, so injection composes with the existing
// determinism story instead of fighting it.
package faults

import (
	"powercontainers/internal/sim"
)

// Event describes one injected fault or one degradation-relevant state
// change, emitted through the plan's nil-guarded audit sink.
type Event struct {
	// T is the sim time the fault took effect.
	T sim.Time
	// Site names the injection point (a meter name, "counter" or
	// "socket").
	Site string
	// Kind is the fault class ("dropout", "spike", "stuck", "jitter",
	// "death", "wrap", "lost-interrupt", "tag-loss").
	Kind string
	// Detail carries optional human-readable context.
	Detail string
}

// AuditSink receives fault events. Implemented by internal/audit; every
// call site nil-guards the sink, so plans run standalone without one.
type AuditSink interface {
	OnFault(e Event)
}

// mix64 is the splitmix64 finalizer used across the repo for pure-hash
// deterministic noise (see power.bucketNoise, runner.SeedFor).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a deterministic uniform [0,1) draw for (seed, index). It is
// the injection analogue of power.bucketNoise: a pure function, so the
// decision for sample i does not depend on how many times, or in what
// order, the surrounding code was called.
func unit(seed, index uint64) float64 {
	x := seed ^ (index+1)*0x9e3779b97f4a7c15
	return (float64(mix64(x)>>11) + 0.5) / (1 << 53)
}
