package core

import (
	"math"
	"strings"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/faults"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// fixHook records counter repairs and recalibration degradation actions
// from the facility's observer, which EnableRecalibration hands on to the
// recalibrator.
type fixHook struct {
	fixes     map[string]int
	rejects   int
	fallbacks []string
}

func (h *fixHook) Observe(e sim.Event) {
	switch e.Kind {
	case sim.KindCounterFix:
		h.fixes[e.Name]++
	case sim.KindRecalReject:
		h.rejects++
	case sim.KindRecalFallback:
		h.fallbacks = append(h.fallbacks, e.Detail)
	}
}

// runCounterFaults runs a fixed single-core workload under the given counter
// faults and returns the attributed request energy plus the repair log.
func runCounterFaults(t *testing.T, counter *faults.CounterFaults, cfg Config) (float64, *fixHook) {
	t.Helper()
	k, f := newRig(t, uniSpec, cfg)
	h := &fixHook{fixes: map[string]int{}}
	f.Observer = h
	if counter != nil {
		p := &faults.Plan{Seed: 9, Counter: counter}
		k.Faults = p.KernelSurface()
	}
	cont := f.NewContainer("req")
	k.Spawn("w", kernel.Script(kernel.OpCompute{BaseCycles: 100e6, Act: cpu.Activity{IPC: 1}}), cont)
	k.Eng.Run()
	return cont.CPUEnergyJ, h
}

// TestCounterUnwrapRepairsWrappedRegisters: under a 5e6-cycle register
// modulus every fifth sampling period sees a wrapped (negative) delta; the
// unwrap repair must reconstruct the true delta exactly, leaving attributed
// energy identical to the fault-free run.
func TestCounterUnwrapRepairsWrappedRegisters(t *testing.T) {
	clean, h0 := runCounterFaults(t, nil, Config{Approach: ApproachChipShare})
	if len(h0.fixes) != 0 {
		t.Fatalf("fault-free run reported repairs: %v", h0.fixes)
	}
	repaired, h := runCounterFaults(t, &faults.CounterFaults{WrapEvery: 5e6},
		Config{Approach: ApproachChipShare})
	if h.fixes["unwrap"] == 0 {
		t.Fatal("no unwrap repairs reported under a wrapping register")
	}
	if math.Abs(repaired-clean)/clean > 1e-9 {
		t.Fatalf("unwrap-repaired energy %.9f J != clean %.9f J", repaired, clean)
	}

	// Ablation: with the repair disabled the same faults corrupt the
	// attribution visibly (negative deltas clamp to zero → undercount).
	broken, hb := runCounterFaults(t, &faults.CounterFaults{WrapEvery: 5e6},
		Config{Approach: ApproachChipShare, DisableCounterRepair: true})
	if len(hb.fixes) != 0 {
		t.Fatalf("disabled repair still reported fixes: %v", hb.fixes)
	}
	if err := math.Abs(broken-clean) / clean; err < 0.05 {
		t.Fatalf("unrepaired wrap error %.1f%% too small — fault injection lost its teeth", 100*err)
	}
}

// TestLostInterruptExtrapolation: lost overflow interrupts stretch sampling
// periods past the register modulus, where unwrapping is ambiguous; the
// capped extrapolation from the previous period's rates must keep attributed
// energy close to the fault-free run.
func TestLostInterruptExtrapolation(t *testing.T) {
	clean, _ := runCounterFaults(t, nil, Config{Approach: ApproachChipShare})
	repaired, h := runCounterFaults(t,
		&faults.CounterFaults{WrapEvery: 2e6, LostInterruptP: 0.6},
		Config{Approach: ApproachChipShare})
	if h.fixes["extrapolate"] == 0 {
		t.Fatalf("no extrapolation repairs under 60%% lost interrupts (fixes: %v)", h.fixes)
	}
	if err := math.Abs(repaired-clean) / clean; err > 0.05 {
		t.Fatalf("extrapolated energy %.4f J vs clean %.4f J (%.1f%% error)",
			repaired, clean, 100*err)
	}
}

// failoverOffline builds a small offline calibration block consistent with
// the rig's true coefficients on both meter scopes.
func failoverOffline() []model.CalSample {
	var out []model.CalSample
	for i := 0; i < 4; i++ {
		m := model.Metrics{Core: float64(i+1) / 4, Ins: float64(i) / 4}
		out = append(out, model.CalSample{
			M:              m,
			PkgActiveW:     trueCoeff.Core*m.Core + trueCoeff.Ins*m.Ins,
			MachineActiveW: trueCoeff.Core*m.Core + trueCoeff.Ins*m.Ins,
		})
	}
	return out
}

// TestRecalibrationFailoverToFallbackMeter: when the primary chip meter dies
// mid-run (injected meter death), the watchdog must detect the stalled
// delivery stream, audit the failover, and swap in a recalibrator on the
// wall meter that then receives samples.
func TestRecalibrationFailoverToFallbackMeter(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{Approach: ApproachChipShare})
	h := &fixHook{fixes: map[string]int{}}
	f.Observer = h
	chip := power.NewChipMeter(k.Rec, 11)
	wall := power.NewWattsupMeter(k.Rec, 12)
	plan := &faults.Plan{Seed: 3, Meter: &faults.MeterFaults{DeathAt: 500 * sim.Millisecond}}
	r := f.EnableRecalibrationFailover(FailoverConfig{
		Primary:       plan.WrapMeter(chip),
		PrimaryScope:  model.ScopePackage,
		Fallback:      wall,
		FallbackScope: model.ScopeMachine,
		Offline:       failoverOffline(),
		Period:        50 * sim.Millisecond,
		DeadAfter:     200 * sim.Millisecond,
	})
	cont := f.NewContainer("req")
	k.Spawn("w", kernel.Script(kernel.OpCompute{BaseCycles: 3e9, Act: cpu.Activity{IPC: 1}}), cont)
	k.Eng.RunUntil(3 * sim.Second)

	if d := r.Delivered(); d == 0 {
		t.Fatal("primary recalibrator never received samples before the death")
	}
	active := f.Recalibrator()
	if active == r {
		t.Fatal("watchdog did not fail over from the dead primary meter")
	}
	if active.Meter != wall {
		t.Fatalf("failover selected meter %q, want the wall meter", active.Meter.Name())
	}
	if active.Delivered() == 0 {
		t.Fatal("fallback recalibrator received no samples after failover")
	}
	found := false
	for _, reason := range h.fallbacks {
		if strings.Contains(reason, "failing over") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failover not audited; fallback reasons: %v", h.fallbacks)
	}
}

// TestFailoverStaysOnHealthyPrimary: with no injected faults the watchdog
// must never fire — the primary keeps delivering and remains active.
func TestFailoverStaysOnHealthyPrimary(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{Approach: ApproachChipShare})
	h := &fixHook{fixes: map[string]int{}}
	f.Observer = h
	chip := power.NewChipMeter(k.Rec, 11)
	wall := power.NewWattsupMeter(k.Rec, 12)
	r := f.EnableRecalibrationFailover(FailoverConfig{
		Primary:       chip,
		PrimaryScope:  model.ScopePackage,
		Fallback:      wall,
		FallbackScope: model.ScopeMachine,
		Offline:       failoverOffline(),
		Period:        50 * sim.Millisecond,
		DeadAfter:     200 * sim.Millisecond,
	})
	cont := f.NewContainer("req")
	k.Spawn("w", kernel.Script(kernel.OpCompute{BaseCycles: 2e9, Act: cpu.Activity{IPC: 1}}), cont)
	k.Eng.RunUntil(2 * sim.Second)
	if f.Recalibrator() != r {
		t.Fatal("healthy primary was failed over")
	}
	if len(h.fallbacks) != 0 {
		t.Fatalf("unexpected fallback events: %v", h.fallbacks)
	}
}
