package stream_test

import (
	"math"
	"testing"

	"powercontainers/internal/align"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/faults"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// streamFaultCounter counts fault events the plan delivered.
type streamFaultCounter struct{ n int }

func (c *streamFaultCounter) Observe(e sim.Event) {
	if e.Kind == sim.KindFault {
		c.n++
	}
}

// faultBed builds a faultmatrix-style rig driven by the stream engine: a
// SandyBridge machine whose chip meter is (optionally) wrapped with a
// fault plan before online recalibration is wired against it, with the
// robust degradation responses armed.
func faultBed(t *testing.T, seed uint64, mf *faults.MeterFaults, counter *streamFaultCounter) (testbed, *align.Recalibrator, power.Meter) {
	t.Helper()
	m, err := experiments.Exec{}.NewMachine(cpu.SandyBridge, core.ApproachChipShare, seed)
	if err != nil {
		t.Fatal(err)
	}
	var meter power.Meter = m.Chip
	if mf != nil {
		plan := &faults.Plan{Seed: seed + 1000, Meter: mf, Observer: counter}
		meter = plan.WrapMeter(m.Chip)
	}
	r := m.Fac.EnableRecalibration(meter, model.ScopePackage, m.Calib.Samples)
	// Pin the known chip-meter lag, as the faultmatrix experiment does:
	// estimating it from a spiked stream would confound the fault axis
	// with delay-search error.
	r.SetDelay(sim.Millisecond)
	r.Robust = align.Robust{Enabled: true}
	rig := m.Deploy(workload.Stress{})
	t1 := equivWarmup + equivWindow
	rig.DriveFrac(0.5, t1)
	return testbed{m: m, gen: rig.Gen, t1: t1}, r, meter
}

// streamRun drives a bed through the streaming engine to its horizon —
// tapping the (possibly fault-wrapped) meter, so the engine's own sample
// ingest rides through the fault stream too — and returns the engine plus
// its collected records.
func streamRun(bed testbed, meter power.Meter) (*stream.Engine, *stream.Collector) {
	e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: meter, Scope: model.ScopePackage},
		stream.Config{Tick: 100 * sim.Millisecond})
	col := &stream.Collector{}
	e.Sink = col
	e.RunUntil(bed.end())
	return e, col
}

// TestStreamUnderMeterDropout drives the PR 5 graceful-degradation path
// online through the streaming engine: with 10% sample dropout and x8
// spikes at 5% injected into the recalibration meter and robust
// recalibration armed, the streamed attribution must stay within 5% of
// the fault-free streaming run (the faultmatrix degraded-cell threshold),
// the recalibrator must actually reject outlier pairs, and the stream's
// own conservation ledger must still reconcile exactly.
func TestStreamUnderMeterDropout(t *testing.T) {
	const seed = 41
	clean, _, cm := faultBed(t, seed, nil, nil)
	ce, _ := streamRun(clean, cm)
	baseJ := clean.m.Fac.TotalAccountedEnergyJ()
	if baseJ <= 0 {
		t.Fatal("fault-free run accounted no energy")
	}

	counter := &streamFaultCounter{}
	faulted, r, fm := faultBed(t, seed, &faults.MeterFaults{DropoutP: 0.10, SpikeP: 0.05, SpikeMag: 8}, counter)
	fe, col := streamRun(faulted, fm)

	if counter.n == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if r.Rejected() == 0 {
		t.Fatal("robust recalibrator rejected no pairs despite injected spikes")
	}
	gotJ := faulted.m.Fac.TotalAccountedEnergyJ()
	if relErr := math.Abs(gotJ-baseJ) / baseJ; relErr > 0.05 {
		t.Fatalf("faulted streaming attribution off by %.2f%% (%g J vs %g J), budget 5%%", 100*relErr, gotJ, baseJ)
	}
	// Faults perturb the measurements, never the stream's internal
	// accounting: the ledger reconciles as tightly as in the clean run.
	if diff := math.Abs(fe.CumAttributedJ() - gotJ); diff > 1e-9*(1+gotJ) {
		t.Fatalf("faulted stream ledger %g J vs accounted %g J", fe.CumAttributedJ(), gotJ)
	}
	// The engine kept emitting through the fault stream: one system
	// record per tick on both runs.
	sys := 0
	for _, rec := range col.Records {
		if rec.Kind == stream.KindSystem {
			sys++
		}
	}
	if want := int(clean.end() / (100 * sim.Millisecond)); sys != want {
		t.Fatalf("faulted run emitted %d system records, want %d", sys, want)
	}
	if ce.Records() == 0 || fe.Records() == 0 {
		t.Fatal("a run emitted no records")
	}
}
