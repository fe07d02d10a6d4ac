package core

import (
	"math"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/faults"
	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
)

// fixHook records the counter repairs the facility's observer sees.
type fixHook struct {
	fixes map[string]int
}

func (h *fixHook) Observe(e sim.Event) {
	if e.Kind == sim.KindCounterFix {
		h.fixes[e.Name]++
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
