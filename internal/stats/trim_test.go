package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"powercontainers/internal/sim"
)

// trimInterval is an odd bucket width, so spread writes split unevenly.
const trimInterval = sim.Time(7)

// checkTrimScript drives a trimmed series and an untrimmed twin through
// the same writes, decoded from ops, with the trimmed one also trimmed
// and probed below its frontier. Each op is an opcode byte and two
// parameter bytes:
//
//	0  Add at a bucket at or above the frontier
//	1  AddSpread starting at or above the frontier
//	2  AddSpread starting exactly at the frontier's first instant
//	3  Trim, moving the frontier up by 0..31 buckets (past Len at times)
//	4  ClearDirty on both
//	5  a read, an Add and an AddSpread below the frontier, each of
//	   which must panic
//
// After every op, Len and DirtyLow must agree, every bucket from the
// frontier to past Len must be bit-identical, and the trimmed series must
// hold less than twice its live part (or no released prefix at all).
func checkTrimScript(t *testing.T, ops []byte) {
	t.Helper()
	trimmed, whole := NewSeries(trimInterval), NewSeries(trimInterval)
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i]%6, sim.Time(ops[i+1]), sim.Time(ops[i+2])
		lo := sim.Time(trimmed.frontier) * trimInterval
		value := float64(a) + float64(b)/256 + 0.125
		switch op {
		case 0:
			at := lo + a*3
			trimmed.Add(at, value)
			whole.Add(at, value)
		case 1:
			t0 := lo + a
			trimmed.AddSpread(t0, t0+b+1, value)
			whole.AddSpread(t0, t0+b+1, value)
		case 2:
			trimmed.AddSpread(lo, lo+a+b+1, value)
			whole.AddSpread(lo, lo+a+b+1, value)
		case 3:
			trimmed.Trim(trimmed.frontier + int(a%32))
		case 4:
			trimmed.ClearDirty()
			whole.ClearDirty()
		case 5:
			if trimmed.frontier == 0 {
				continue
			}
			below := trimmed.frontier - 1 - int(a)%trimmed.frontier
			at := sim.Time(below) * trimInterval
			mustPanicBelow(t, trimmed, "read", func() { trimmed.Bucket(below) })
			mustPanicBelow(t, trimmed, "write", func() { trimmed.Add(at, value) })
			mustPanicBelow(t, trimmed, "write", func() { trimmed.AddSpread(at, lo+b+1, value) })
		}
		if trimmed.Len() != whole.Len() || trimmed.DirtyLow() != whole.DirtyLow() {
			t.Fatalf("op %d: trimmed Len %d DirtyLow %d, untrimmed %d %d",
				i/3, trimmed.Len(), trimmed.DirtyLow(), whole.Len(), whole.DirtyLow())
		}
		for k := trimmed.frontier; k < whole.Len()+2; k++ {
			if got, want := trimmed.Bucket(k), whole.Bucket(k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: bucket %d = %g trimmed, %g untrimmed (frontier %d)", i/3, k, got, want, trimmed.frontier)
			}
		}
		if trimmed.base > trimmed.frontier {
			t.Fatalf("op %d: storage starts at bucket %d, above the frontier %d", i/3, trimmed.base, trimmed.frontier)
		}
		edge := min(trimmed.frontier, trimmed.Len())
		if dead, live := edge-trimmed.base, trimmed.Len()-edge; dead > 0 && dead >= live {
			t.Fatalf("op %d: %d released buckets still held against %d live", i/3, dead, live)
		}
	}
}

// mustPanicBelow runs f, which touches a bucket below s's frontier, and
// requires a panic naming the operation and the frontier.
func mustPanicBelow(t *testing.T, s *Series, op string, f func()) {
	t.Helper()
	want := fmt.Sprintf("below the trim frontier %d", s.frontier)
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, op) || !strings.Contains(msg, want) {
			t.Fatalf("%s below the frontier: panic %q, want one naming %q and %q", op, msg, op, want)
		}
	}()
	f()
}

// TestSeriesTrimMatchesUntrimmed runs random trim scripts through
// checkTrimScript.
func TestSeriesTrimMatchesUntrimmed(t *testing.T) {
	rng := sim.NewRand(23)
	for n := 0; n < 300; n++ {
		ops := make([]byte, 3*(1+rng.Intn(80)))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		checkTrimScript(t, ops)
	}
}

// TestSeriesTrimPanicsBelowFrontier pins the loud failure: once trimmed,
// every read or write below the frontier panics with the frontier in the
// message, as do the whole-series views.
func TestSeriesTrimPanicsBelowFrontier(t *testing.T) {
	s := NewSeries(sim.Millisecond)
	s.AddSpread(0, 10*sim.Millisecond, 10)
	s.Trim(4)
	mustPanicBelow(t, s, "read", func() { s.Bucket(3) })
	mustPanicBelow(t, s, "read", func() { s.RatePerSecond(0) })
	mustPanicBelow(t, s, "read", func() { s.Values() })
	mustPanicBelow(t, s, "read", func() { s.Rebucket(2) })
	mustPanicBelow(t, s, "write", func() { s.Add(3*sim.Millisecond, 1) })
	mustPanicBelow(t, s, "write", func() { s.AddSpread(3*sim.Millisecond+999, 5*sim.Millisecond, 1) })
	if got := s.Bucket(4); got != 1 {
		t.Fatalf("bucket 4 at the frontier = %g, want 1", got)
	}
	s.AddSpread(4*sim.Millisecond, 5*sim.Millisecond, 1)
	if got := s.Bucket(4); got != 2 {
		t.Fatalf("bucket 4 after a write at the frontier = %g, want 2", got)
	}
	if s.Trim(2); s.frontier != 4 {
		t.Fatalf("a lower Trim moved the frontier to %d", s.frontier)
	}
}

// TestSeriesTrimReusesStorage pins the steady state a stream reaches: a
// series written and trimmed one window at a time keeps one backing array
// and allocates nothing.
func TestSeriesTrimReusesStorage(t *testing.T) {
	s := NewSeries(sim.Millisecond)
	var now sim.Time
	step := func() {
		s.AddSpread(now, now+100*sim.Millisecond, 1)
		now += 100 * sim.Millisecond
		s.Trim(int((now - 300*sim.Millisecond) / sim.Millisecond))
	}
	for i := 0; i < 20; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady trimmed writes allocate %.1f times per window", allocs)
	}
	if s.Retained() >= 2*400 {
		t.Fatalf("series holds %d buckets for a 300-bucket window", s.Retained())
	}
}

func FuzzSeriesTrim(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 9, 0, 1, 2, 40, 5, 1, 0, 2, 0, 0, 3, 31, 0, 5, 0, 9})
	f.Add([]byte{1, 200, 255, 3, 7, 0, 4, 0, 0, 2, 1, 1, 3, 30, 0, 5, 3, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*128 {
			ops = ops[:3*128]
		}
		checkTrimScript(t, ops)
	})
}
