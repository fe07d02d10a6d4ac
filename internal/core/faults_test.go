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
	k.Spawn("w", kernel.Script(kernel.Compute(100e6, cpu.Activity{IPC: 1})), cont)
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

// floorProbe checks every metric-series write the facility reports
// against the highest floor MetricsFloor has returned so far.
type floorProbe struct {
	t      *testing.T
	floor  sim.Time
	writes [2]int // sampling periods, device transfers
}

func (p *floorProbe) Observe(e sim.Event) {
	switch e.Kind {
	case sim.KindPeriod:
		p.writes[0]++
	case sim.KindDevicePeriod:
		p.writes[1]++
	default:
		return
	}
	if e.T0 < p.floor {
		p.t.Fatalf("%v over [%s,%s) reaches below the metrics floor %s",
			e.Kind, sim.FormatTime(e.T0), sim.FormatTime(e.T), sim.FormatTime(p.floor))
	}
}

// TestMetricsFloorBoundsLaterWrites: MetricsFloor is a promise that no
// later write to the metric series reaches below it. Four tasks queue
// disk and network transfers behind each other between bursts of
// computation, and lost overflow interrupts stretch sampling periods;
// the floor, taken every millisecond, must stay at or below the start
// of every period and transfer the facility reports afterwards.
func TestMetricsFloorBoundsLaterWrites(t *testing.T) {
	k, f := newRig(t, quadSpec, Config{Approach: ApproachChipShare})
	p := &faults.Plan{Seed: 3, Counter: &faults.CounterFaults{WrapEvery: 2e6, LostInterruptP: 0.6}}
	k.Faults = p.KernelSurface()
	probe := &floorProbe{t: t}
	f.Observer = probe
	act := cpu.Activity{IPC: 1}
	for i := 0; i < 4; i++ {
		var ops []kernel.Op
		for j := 0; j < 6; j++ {
			ops = append(ops, kernel.Compute(3e6, act), kernel.Disk(2e6), kernel.Net(3e6))
		}
		k.Spawn("io", kernel.Script(ops...), f.NewContainer("req"))
	}
	deviceHeld := 0 // checks at which an in-flight transfer set the floor
	for now := sim.Time(0); k.Eng.Pending() > 0; now += sim.Millisecond {
		k.Eng.RunUntil(now)
		floor := f.MetricsFloor()
		if floor > now {
			t.Fatalf("floor %s ahead of now %s", sim.FormatTime(floor), sim.FormatTime(now))
		}
		probe.floor = max(probe.floor, floor)
		for _, d := range []*kernel.Device{k.Disk, k.Net} {
			if start, ok := d.InFlightStart(); ok && start == floor && start < now {
				deviceHeld++
			}
		}
	}
	if probe.writes[0] == 0 || probe.writes[1] == 0 {
		t.Fatalf("checked %d periods and %d transfers", probe.writes[0], probe.writes[1])
	}
	if deviceHeld == 0 {
		t.Fatal("no in-flight transfer ever set the floor")
	}
}
