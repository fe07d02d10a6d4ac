package cpu

import (
	"math"
	"testing"
	"testing/quick"

	"powercontainers/internal/sim"
)

func TestSpecsValid(t *testing.T) {
	for _, s := range Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if Woodcrest.Cores() != 4 || Westmere.Cores() != 12 || SandyBridge.Cores() != 4 {
		t.Fatal("core counts do not match the paper's machines")
	}
}

func TestSpecValidateRejections(t *testing.T) {
	cases := []MachineSpec{
		{},
		{Name: "x", Chips: 0, CoresPerChip: 2, FreqHz: 1e9, DutyLevels: 8},
		{Name: "x", Chips: 1, CoresPerChip: 2, FreqHz: 0, DutyLevels: 8},
		{Name: "x", Chips: 1, CoresPerChip: 2, FreqHz: 1e9, DutyLevels: 1},
		{Name: "x", Chips: 1, CoresPerChip: 2, FreqHz: 1e9, DutyLevels: 8, MemStallCycles: -1},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec validated", i)
		}
	}
}

func TestChipOf(t *testing.T) {
	for core := 0; core < 12; core++ {
		want := core / 6
		if got := Westmere.ChipOf(core); got != want {
			t.Errorf("ChipOf(%d) = %d, want %d", core, got, want)
		}
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("Westmere")
	if err != nil || s.Name != "Westmere" {
		t.Fatalf("SpecByName: %v %v", s, err)
	}
	if _, err := SpecByName("Itanium"); err == nil {
		t.Fatal("unknown spec did not error")
	}
}

func TestCountersArithmetic(t *testing.T) {
	a := Counters{Cycles: 10, Instructions: 20, Float: 1, Cache: 2, Mem: 3}
	b := Counters{Cycles: 4, Instructions: 5, Float: 1, Cache: 1, Mem: 1}
	d := a
	d.Sub(&b)
	if d.Cycles != 6 || d.Instructions != 15 || d.Float != 0 || d.Cache != 1 || d.Mem != 2 {
		t.Fatalf("Sub = %+v", d)
	}
	s := d
	s.Add(&b)
	if s != a {
		t.Fatalf("Add did not invert Sub: %+v", s)
	}
	if sc := b.Scale(2); sc.Cycles != 8 || sc.Mem != 2 {
		t.Fatalf("Scale = %+v", sc)
	}
	cl := Counters{Cycles: -1, Instructions: 5}
	cl.ClampNonNegative()
	if cl.Cycles != 0 || cl.Instructions != 5 {
		t.Fatalf("Clamp = %+v", cl)
	}
}

func TestActivityEvents(t *testing.T) {
	act := Activity{IPC: 1.5, FLOPC: 0.25, LLCPC: 0.01, MemPC: 0.002}
	ev := Counters{Cycles: 1}
	ev.Accrue(1000, &act)
	if ev.Cycles != 1001 || ev.Instructions != 1500 || ev.Float != 250 || ev.Cache != 10 || ev.Mem != 2 {
		t.Fatalf("Accrue = %+v", ev)
	}
}

func TestCoreAdvanceBusyCounters(t *testing.T) {
	c := NewCore(0, SandyBridge)
	act := Activity{IPC: 2, FLOPC: 0.5, LLCPC: 0.01, MemPC: 0.001}
	cycles := c.AdvanceBusy(sim.Millisecond, act)
	wantCycles := 3.1e9 * 1e-3
	if math.Abs(cycles-wantCycles) > 1 || c.Counters().Cycles != cycles {
		t.Fatalf("cycles = %g (counter %g), want %g", cycles, c.Counters().Cycles, wantCycles)
	}
	if math.Abs(c.Counters().Instructions-2*wantCycles) > 2 {
		t.Fatalf("instructions = %g", c.Counters().Instructions)
	}
}

func TestCoreDutyModulationScalesProgress(t *testing.T) {
	c := NewCore(0, SandyBridge)
	c.SetDutyLevel(4) // half duty
	if f := c.DutyFraction(); f != 0.5 {
		t.Fatalf("duty fraction = %g", f)
	}
	cycles := c.AdvanceBusy(sim.Millisecond, Activity{IPC: 1})
	want := 3.1e9 * 1e-3 * 0.5
	if math.Abs(cycles-want) > 1 {
		t.Fatalf("half-duty cycles = %g, want %g", cycles, want)
	}
}

func TestCoreDutyClamping(t *testing.T) {
	c := NewCore(0, SandyBridge)
	c.SetDutyLevel(0)
	if c.DutyLevel() != 1 {
		t.Fatal("duty did not clamp to 1")
	}
	c.SetDutyLevel(99)
	if c.DutyLevel() != 8 {
		t.Fatal("duty did not clamp to max")
	}
}

func TestCoreWallForRoundTrip(t *testing.T) {
	c := NewCore(0, Woodcrest)
	f := func(kcycles uint16) bool {
		cycles := float64(kcycles) + 1
		wall := c.WallFor(cycles)
		got := c.CyclesIn(wall)
		// WallFor rounds up to whole nanoseconds (a ns is ~3 cycles);
		// allow sub-cycle float error on the low side.
		return got > cycles-0.01 && got < cycles+4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if c.WallFor(0) != 0 {
		t.Fatal("WallFor(0) != 0")
	}
	if c.WallFor(0.001) < 1 {
		t.Fatal("WallFor must round up to ≥1ns for positive work")
	}
}

func TestCoreOverflowInterruptTiming(t *testing.T) {
	c := NewCore(0, SandyBridge)
	threshold := 3.1e6 // 1 ms worth of non-halt cycles
	c.SetOverflowThreshold(threshold)
	if c.TimeToOverflow() != sim.Millisecond {
		t.Fatalf("time to overflow = %d, want 1ms", c.TimeToOverflow())
	}
	c.AdvanceBusy(sim.Millisecond/2, Activity{})
	if got := c.TimeToOverflow(); got != sim.Millisecond/2 {
		t.Fatalf("after half: %d, want 0.5ms", got)
	}
	if c.Overflowed() {
		t.Fatal("overflowed early")
	}
	c.AdvanceBusy(sim.Millisecond/2, Activity{})
	if !c.Overflowed() {
		t.Fatal("did not overflow at threshold")
	}
	if c.Overflowed() {
		t.Fatal("overflow flag did not reset")
	}
}

func TestCoreOverflowAtHalfDutySlowsDown(t *testing.T) {
	c := NewCore(0, SandyBridge)
	c.SetOverflowThreshold(3.1e6)
	c.SetDutyLevel(4)
	if got := c.TimeToOverflow(); got != 2*sim.Millisecond {
		t.Fatalf("half-duty time to overflow = %d, want 2ms", got)
	}
}

func TestCoreOverflowDisabled(t *testing.T) {
	c := NewCore(0, SandyBridge)
	if c.TimeToOverflow() != NoOverflow {
		t.Fatal("disabled overflow should report NoOverflow")
	}
	c.AdvanceBusy(10*sim.Millisecond, Activity{})
	if c.Overflowed() {
		t.Fatal("disabled overflow fired")
	}
}

func TestExecutionMemoryStallInflation(t *testing.T) {
	act := Activity{IPC: 2, MemPC: 0.01}
	cycles, eff := Execution(Woodcrest, 1e6, act)
	wantInflate := Woodcrest.WorkScale + 0.01*Woodcrest.MemStallCycles
	if math.Abs(cycles-1e6*wantInflate) > 1 {
		t.Fatalf("cycles = %g, want %g", cycles, 1e6*wantInflate)
	}
	// Total event counts are preserved: rate × cycles is constant.
	if math.Abs(eff.IPC*cycles-2e6) > 1 {
		t.Fatalf("instructions not preserved: %g", eff.IPC*cycles)
	}
	if math.Abs(eff.MemPC*cycles-1e4) > 1e-6 {
		t.Fatalf("mem transactions not preserved: %g", eff.MemPC*cycles)
	}
}

func TestExecutionNoMemNoInflation(t *testing.T) {
	cycles, eff := Execution(SandyBridge, 5e5, Activity{IPC: 1.8})
	if cycles != 5e5 || eff.IPC != 1.8 {
		t.Fatalf("stall-free op changed: %g %+v", cycles, eff)
	}
}

func TestExecutionRelativeMachineSpeed(t *testing.T) {
	// A memory-heavy op must take relatively more cycles on Woodcrest
	// than on SandyBridge.
	act := Activity{IPC: 0.8, MemPC: 0.008}
	sb, _ := Execution(SandyBridge, 1e6, act)
	wc, _ := Execution(Woodcrest, 1e6, act)
	if wc <= sb {
		t.Fatalf("Woodcrest (%g) should need more cycles than SandyBridge (%g)", wc, sb)
	}
}

func TestPublishSample(t *testing.T) {
	c := NewCore(2, Westmere)
	c.PublishSample(0.75)
	if c.LastUtil != 0.75 {
		t.Fatal("published sample not stored")
	}
}

// TestCoreCachedDutyMatchesRecomputed: the duty fraction and effective
// frequency a core caches carry, bit for bit, what the expressions they
// replace compute from the duty register, after any sequence of
// SetDutyLevel calls (out-of-range levels included), and every segment
// conversion reading them agrees with the recomputed form.
func TestCoreCachedDutyMatchesRecomputed(t *testing.T) {
	specs := Specs()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	f := func(pick uint8, levels []int8, walls []uint32) bool {
		spec := specs[int(pick)%len(specs)]
		c := NewCore(0, spec)
		check := func() bool {
			duty := float64(c.DutyLevel()) / float64(c.DutyMax())
			hz := c.FreqHz * duty
			if !same(c.DutyFraction(), duty) || !same(c.effHz, hz) {
				return false
			}
			for _, w := range walls {
				wall := sim.Time(w)
				if !same(c.CyclesIn(wall), float64(wall)/float64(sim.Second)*hz) {
					return false
				}
				cycles := float64(w) * 7.25
				ns := cycles / hz * float64(sim.Second)
				if want := max(sim.Time(math.Ceil(ns)), 1); cycles > 0 && c.WallFor(cycles) != want {
					return false
				}
			}
			return true
		}
		if !check() {
			return false
		}
		for _, l := range levels {
			c.SetDutyLevel(int(l))
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
