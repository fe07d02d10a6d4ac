package faults

import (
	"reflect"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// fakeMeter is a deterministic base meter: one sample per millisecond
// bucket, watts a pure function of the bucket index, delivered with a 1 ms
// lag. It intentionally does NOT implement SinceReader so the decorator's
// full-Read fallback path is exercised too (see sinceFake below).
type fakeMeter struct{}

func (fakeMeter) Name() string       { return "fake" }
func (fakeMeter) Interval() sim.Time { return sim.Millisecond }
func (fakeMeter) Delay() sim.Time    { return sim.Millisecond }
func (fakeMeter) Scope() power.Scope { return power.ScopePackage }
func (fakeMeter) IdleW() float64     { return 5 }

func fakeSample(b int) power.Sample {
	start := sim.Time(b) * sim.Millisecond
	return power.Sample{
		Start:   start,
		Arrival: start + 2*sim.Millisecond,
		Watts:   10 + float64(b%7),
	}
}

func (fakeMeter) Read(now sim.Time) []power.Sample {
	var out []power.Sample
	for b := 0; ; b++ {
		s := fakeSample(b)
		if s.Arrival > now {
			break
		}
		out = append(out, s)
	}
	return out
}

// sinceFake adds the SinceReader capability on top of fakeMeter.
type sinceFake struct{ fakeMeter }

func (m sinceFake) ReadSince(now sim.Time, skip int) []power.Sample {
	all := m.Read(now)
	if skip < 0 {
		skip = 0
	}
	if skip > len(all) {
		skip = len(all)
	}
	return all[skip:]
}

type eventLog struct{ events []Event }

func (l *eventLog) OnFault(e Event) { l.events = append(l.events, e) }

func testPlan(m *MeterFaults) *Plan {
	return &Plan{Seed: 42, Meter: m}
}

func TestWrapMeterIdentityWhenUnconfigured(t *testing.T) {
	base := sinceFake{}
	if got := (&Plan{Seed: 1}).WrapMeter(base); got != power.Meter(base) {
		t.Fatalf("plan without meter faults must return the base meter unchanged")
	}
	var nilPlan *Plan
	if got := nilPlan.WrapMeter(base); got != power.Meter(base) {
		t.Fatalf("nil plan must return the base meter unchanged")
	}
}

func TestFaultyMeterReadSinceContract(t *testing.T) {
	p := testPlan(&MeterFaults{DropoutP: 0.2, SpikeP: 0.1, SpikeMag: 4, StuckP: 0.1,
		JitterP: 0.3, JitterMax: 5 * sim.Millisecond})
	fm := p.WrapMeter(sinceFake{}).(*FaultyMeter)
	for _, now := range []sim.Time{10 * sim.Millisecond, 55 * sim.Millisecond, 200 * sim.Millisecond} {
		all := fm.Read(now)
		for k := 0; k <= len(all)+5; k++ {
			got := fm.ReadSince(now, k)
			want := all
			if k < len(all) {
				want = all[k:]
			} else {
				want = nil
			}
			if len(got) != len(want) {
				t.Fatalf("ReadSince(%d, %d): got %d samples, want %d", now, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ReadSince(%d, %d)[%d] = %+v, want %+v", now, k, i, got[i], want[i])
				}
			}
		}
		if got := fm.ReadSince(now, -3); len(got) != len(all) {
			t.Fatalf("negative skip must clamp to 0")
		}
	}
}

// TestFaultyMeterPollingInvariance pins the core determinism property: the
// faulted stream is identical whether the decorator is polled every
// millisecond or once at the end, and identical across the SinceReader and
// plain-Read base paths.
func TestFaultyMeterPollingInvariance(t *testing.T) {
	cfg := &MeterFaults{DropoutP: 0.15, SpikeP: 0.1, SpikeMag: 6, StuckP: 0.1,
		JitterP: 0.25, JitterMax: 7 * sim.Millisecond}
	end := sim.Time(300) * sim.Millisecond

	polled := testPlan(cfg).WrapMeter(sinceFake{}).(*FaultyMeter)
	for now := sim.Time(0); now <= end; now += sim.Millisecond {
		polled.Read(now)
	}
	once := testPlan(cfg).WrapMeter(sinceFake{}).(*FaultyMeter)
	noSince := testPlan(cfg).WrapMeter(fakeMeter{}).(*FaultyMeter)

	a := polled.Read(end)
	b := once.Read(end)
	c := noSince.Read(end)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("polled (%d samples) and one-shot (%d samples) streams diverge", len(a), len(b))
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("SinceReader and plain-Read base paths diverge")
	}
}

func TestFaultyMeterDropoutRate(t *testing.T) {
	p := testPlan(&MeterFaults{DropoutP: 0.3})
	log := &eventLog{}
	p.Audit = log
	fm := p.WrapMeter(sinceFake{})
	end := sim.Time(2000)*sim.Millisecond + 2*sim.Millisecond
	got := len(fm.Read(end))
	base := len(sinceFake{}.Read(end))
	dropped := base - got
	frac := float64(dropped) / float64(base)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("dropout fraction %.3f far from configured 0.3 (%d of %d)", frac, dropped, base)
	}
	if len(log.events) != dropped {
		t.Fatalf("audit saw %d dropout events, expected %d", len(log.events), dropped)
	}
	for _, e := range log.events {
		if e.Kind != "dropout" || e.Site != "meter/fake" {
			t.Fatalf("unexpected event %+v", e)
		}
	}
}

func TestFaultyMeterMonotoneArrivalsUnderJitter(t *testing.T) {
	p := testPlan(&MeterFaults{JitterP: 0.5, JitterMax: 20 * sim.Millisecond})
	fm := p.WrapMeter(sinceFake{})
	end := sim.Time(500) * sim.Millisecond
	samples := fm.Read(end)
	if len(samples) == 0 {
		t.Fatalf("no samples delivered")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Arrival < samples[i-1].Arrival {
			t.Fatalf("arrival order violated at %d: %d < %d", i, samples[i].Arrival, samples[i-1].Arrival)
		}
	}
	// Jittered samples must never be visible before they arrive.
	mid := 100 * sim.Millisecond
	fresh := testPlan(&MeterFaults{JitterP: 0.5, JitterMax: 20 * sim.Millisecond}).WrapMeter(sinceFake{})
	for _, s := range fresh.Read(mid) {
		if s.Arrival > mid {
			t.Fatalf("sample with arrival %d delivered at %d", s.Arrival, mid)
		}
	}
}

func TestFaultyMeterDeath(t *testing.T) {
	death := 50 * sim.Millisecond
	p := testPlan(&MeterFaults{DeathAt: death})
	log := &eventLog{}
	p.Audit = log
	fm := p.WrapMeter(sinceFake{})
	samples := fm.Read(400 * sim.Millisecond)
	if len(samples) == 0 {
		t.Fatalf("meter died before delivering anything")
	}
	for _, s := range samples {
		if s.Arrival > death {
			t.Fatalf("sample arrived at %d after meter death at %d", s.Arrival, death)
		}
	}
	deaths := 0
	for _, e := range log.events {
		if e.Kind == "death" {
			deaths++
		}
	}
	if deaths != 1 {
		t.Fatalf("expected exactly one death event, got %d", deaths)
	}
}

func TestFaultyMeterSpikeAndStuck(t *testing.T) {
	p := testPlan(&MeterFaults{SpikeP: 0.2, SpikeMag: 8, StuckP: 0.2})
	log := &eventLog{}
	p.Audit = log
	fm := p.WrapMeter(sinceFake{})
	end := sim.Time(1000)*sim.Millisecond + 2*sim.Millisecond
	samples := fm.Read(end)
	base := sinceFake{}.Read(end)
	if len(samples) != len(base) {
		t.Fatalf("spike/stuck faults must not change sample count: %d vs %d", len(samples), len(base))
	}
	spikes, stucks := 0, 0
	for _, e := range log.events {
		switch e.Kind {
		case "spike":
			spikes++
		case "stuck":
			stucks++
		}
	}
	if spikes == 0 || stucks == 0 {
		t.Fatalf("expected both spike and stuck events, got %d / %d", spikes, stucks)
	}
	// Spot-check magnitudes: every spiked sample is base×8, every stuck
	// sample equals some earlier delivered value.
	seenSpike := false
	for i, s := range samples {
		if s.Watts == base[i].Watts*8 {
			seenSpike = true
		}
	}
	if !seenSpike {
		t.Fatalf("no delivered sample shows the 8x spike magnitude")
	}
}

func TestKernelSurfaceWrapAndDeterminism(t *testing.T) {
	mk := func() *KernelSurface {
		return (&Plan{Seed: 9, Counter: &CounterFaults{WrapEvery: 1000, LostInterruptP: 0.3},
			Socket: &SocketFaults{InjectTagLossP: 0.2, SendTagLossP: 0.1}}).KernelSurface()
	}
	a, b := mk(), mk()
	if a == nil {
		t.Fatalf("surface must be non-nil when counter faults configured")
	}
	raw := cpu.Counters{Cycles: 12345, Instructions: 2345, Float: 999, Cache: 1000, Mem: 0}
	w := a.WrapCounters(0, raw)
	want := cpu.Counters{Cycles: 345, Instructions: 345, Float: 999, Cache: 0, Mem: 0}
	if w != want {
		t.Fatalf("WrapCounters = %+v, want %+v", w, want)
	}
	if a.WrapModulus() != 1000 {
		t.Fatalf("WrapModulus = %v", a.WrapModulus())
	}
	for i := 0; i < 200; i++ {
		now := sim.Time(i) * sim.Millisecond
		if a.DropInterrupt(i%4, now) != b.DropInterrupt(i%4, now) {
			t.Fatalf("DropInterrupt diverged at call %d", i)
		}
		if a.DropInjectTag(now) != b.DropInjectTag(now) {
			t.Fatalf("DropInjectTag diverged at call %d", i)
		}
		if a.DropSendTag(now) != b.DropSendTag(now) {
			t.Fatalf("DropSendTag diverged at call %d", i)
		}
	}
	if (&Plan{Seed: 9}).KernelSurface() != nil {
		t.Fatalf("surface must be nil when no kernel faults configured")
	}
}
