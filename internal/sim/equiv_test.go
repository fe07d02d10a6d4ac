package sim

import (
	"testing"
)

// This file property- and fuzz-tests the wheel engine against the
// container/heap reference engine in ref_test.go: identical operation
// sequences must produce bit-identical dispatch streams — same (at, seq)
// per step, same callback order, same clock — including for far-future
// events that pass through the overflow heap.

type probeRec struct {
	now, at Time
	seq     uint64
}

// recProbe records every dispatch and checks the two ordering invariants
// on the fly: virtual time never decreases, and simultaneous events fire
// in schedule (seq) order.
type recProbe struct {
	t    *testing.T
	name string
	recs []probeRec
}

func (p *recProbe) Observe(e Event) {
	now, at, seq := e.T0, e.T, e.Seq
	if at < now {
		p.t.Errorf("%s: dispatched event at %d before clock %d", p.name, at, now)
	}
	if n := len(p.recs); n > 0 {
		prev := p.recs[n-1]
		if at < prev.at {
			p.t.Errorf("%s: virtual time went backwards: %d after %d", p.name, at, prev.at)
		}
		if at == prev.at && seq <= prev.seq {
			p.t.Errorf("%s: FIFO violated at t=%d: seq %d after %d", p.name, at, seq, prev.seq)
		}
	}
	p.recs = append(p.recs, probeRec{now, at, seq})
}

// equivDriver applies one byte-encoded operation stream to both engines
// and fails the test on any divergence.
func equivDriver(t *testing.T, ops []byte) {
	t.Helper()
	arena := NewEngine()
	ref := newRefEngine()
	pa := &recProbe{t: t, name: "arena"}
	pr := &recProbe{t: t, name: "ref"}
	arena.SetObserver(pa)
	ref.SetObserver(pr)

	var firedA, firedR []int
	nextID := 0

	pos := 0
	nextByte := func() byte {
		if pos >= len(ops) {
			return 0
		}
		b := ops[pos]
		pos++
		return b
	}

	// schedule registers event id on both engines at the same offset.
	// Every third event's callback schedules a child event, so nested
	// scheduling inside a dispatch is exercised.
	schedule := func(delta Time) {
		id := nextID
		nextID++
		cbA := func() {
			firedA = append(firedA, id)
			if id%3 == 0 {
				arena.After(5*Microsecond, func() { firedA = append(firedA, id+1_000_000) })
			}
		}
		cbR := func() {
			firedR = append(firedR, id)
			if id%3 == 0 {
				ref.After(5*Microsecond, func() { firedR = append(firedR, id+1_000_000) })
			}
		}
		arena.After(delta, cbA)
		ref.After(delta, cbR)
	}

	for pos < len(ops) {
		op := nextByte()
		switch op % 8 {
		case 0, 1, 2:
			// Coarse deltas force same-timestamp collisions, which is
			// where FIFO tie-breaking actually gets exercised.
			schedule(Time(nextByte()%16) * Microsecond)
		case 3:
			// Far future: 2^34..2^37 ns straddles the wheel's 2^36 ns
			// span, so some events go to the overflow heap and later
			// drain back into the wheel.
			schedule(Time(nextByte()%8+1) << 34)
		case 4, 5:
			ranA := arena.Step()
			ranR := ref.Step()
			if ranA != ranR {
				t.Fatalf("Step diverged: arena=%v ref=%v", ranA, ranR)
			}
		case 6:
			d := Time(nextByte()%64) * Microsecond
			arena.RunUntil(arena.Now() + d)
			ref.RunUntil(ref.Now() + d)
		case 7:
			if arena.Pending() != ref.Pending() {
				t.Fatalf("Pending diverged: arena=%d ref=%d", arena.Pending(), ref.Pending())
			}
		}
		if arena.Now() != ref.Now() {
			t.Fatalf("clock diverged: arena=%d ref=%d", arena.Now(), ref.Now())
		}
	}
	arena.Run()
	ref.Run()

	if arena.Now() != ref.Now() {
		t.Fatalf("final clock diverged: arena=%d ref=%d", arena.Now(), ref.Now())
	}
	if len(firedA) != len(firedR) {
		t.Fatalf("fired %d callbacks on arena, %d on ref", len(firedA), len(firedR))
	}
	for i := range firedA {
		if firedA[i] != firedR[i] {
			t.Fatalf("callback order diverged at %d: arena=%d ref=%d", i, firedA[i], firedR[i])
		}
	}
	if len(pa.recs) != len(pr.recs) {
		t.Fatalf("dispatched %d events on arena, %d on ref", len(pa.recs), len(pr.recs))
	}
	for i := range pa.recs {
		if pa.recs[i] != pr.recs[i] {
			t.Fatalf("dispatch %d diverged: arena=%+v ref=%+v", i, pa.recs[i], pr.recs[i])
		}
	}
}

// TestArenaMatchesReferenceProperty drives long random op streams from
// several seeds through both engines.
func TestArenaMatchesReferenceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := NewRand(seed * 101)
		ops := make([]byte, 4096)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		equivDriver(t, ops)
	}
}

// FuzzArenaMatchesReference lets the fuzzer search for op sequences on
// which the two engines diverge.
func FuzzArenaMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 4, 4, 3, 0})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 1, 6, 63, 7})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 4, 4, 4, 3, 0, 0, 0, 6, 10, 7, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			t.Skip("cap op streams so the fuzzer explores breadth, not length")
		}
		equivDriver(t, ops)
	})
}
