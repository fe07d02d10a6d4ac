package faults

import (
	"powercontainers/internal/power"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
)

// MeterFaults configures the meter decorator. Dropout, spike, and stuck
// probabilities partition a single per-sample uniform draw, so their sum
// must be ≤ 1 (ParseSchedule validates this; WrapMeter trusts it).
type MeterFaults struct {
	// DropoutP is the probability a sample is silently lost.
	DropoutP float64
	// SpikeP is the probability a sample's reading is multiplied by
	// SpikeMag (an outlier spike).
	SpikeP float64
	// SpikeMag is the spike multiplier (default 8 when zero).
	SpikeMag float64
	// StuckP is the probability a sample repeats the previously
	// delivered reading (a stuck/stale register).
	StuckP float64
	// JitterP is the probability a sample's delivery is delayed by a
	// uniform extra lag in (0, JitterMax].
	JitterP float64
	// JitterMax bounds the extra delivery lag (default 0 disables).
	JitterMax sim.Time
	// DeathAt, when > 0, kills the meter: no sample with effective
	// arrival after DeathAt is ever delivered.
	DeathAt sim.Time
}

// CounterFaults configures counter-read corruption in the kernel.
type CounterFaults struct {
	// WrapEvery, when > 0, is the MSR-style wraparound modulus: raw
	// cumulative counters are reduced mod WrapEvery before the monitor
	// sees them.
	WrapEvery float64
	// LostInterruptP is the probability an overflow interrupt delivery
	// is dropped.
	LostInterruptP float64
}

// SocketFaults configures container-tag loss on socket transfers.
type SocketFaults struct {
	// InjectTagLossP is the probability an externally injected segment
	// (a request entering a listener socket) loses its container tag.
	InjectTagLossP float64
	// SendTagLossP is the probability an in-flight send loses its tag.
	SendTagLossP float64
}

// Plan is a composable fault-injection plan. A nil sub-config disables
// that fault family entirely; an unused Plan injects nothing.
type Plan struct {
	// Seed roots every per-site decision stream.
	Seed    uint64
	Meter   *MeterFaults
	Counter *CounterFaults
	Socket  *SocketFaults
	// Audit, when non-nil, receives every injected fault.
	Audit AuditSink
}

// emit reports a fault through the nil-guarded audit seam.
func (p *Plan) emit(e Event) {
	if p.Audit != nil {
		p.Audit.OnFault(e)
	}
}

// siteSeed derives the decision-stream seed for one injection site.
func (p *Plan) siteSeed(site string) uint64 {
	return runner.SeedFor(p.Seed, "faults/"+site)
}

// WrapMeter wraps base in the plan's meter-fault decorator. With no meter
// faults configured the base meter is returned untouched, so callers can
// wrap unconditionally.
func (p *Plan) WrapMeter(base power.Meter) power.Meter {
	if p == nil || p.Meter == nil {
		return base
	}
	return newFaultyMeter(p, base)
}

// KernelSurface returns the kernel-side injection surface (counter
// corruption, interrupt loss, socket-tag loss), or nil when the plan
// configures neither fault family. The result implements
// kernel.FaultSurface.
func (p *Plan) KernelSurface() *KernelSurface {
	if p == nil || (p.Counter == nil && p.Socket == nil) {
		return nil
	}
	return newKernelSurface(p)
}
