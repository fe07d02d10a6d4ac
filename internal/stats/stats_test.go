package stats

import (
	"math"
	"testing"
	"testing/quick"

	"powercontainers/internal/sim"
)

func TestSeriesAddAndBucket(t *testing.T) {
	s := NewSeries(sim.Millisecond)
	s.Add(0, 1)
	s.Add(sim.Millisecond-1, 2)
	s.Add(sim.Millisecond, 5)
	if got := s.Bucket(0); got != 3 {
		t.Fatalf("bucket 0 = %g, want 3", got)
	}
	if got := s.Bucket(1); got != 5 {
		t.Fatalf("bucket 1 = %g, want 5", got)
	}
	if got := s.Bucket(99); got != 0 {
		t.Fatalf("untouched bucket = %g, want 0", got)
	}
}

func TestSeriesAddSpreadProportional(t *testing.T) {
	s := NewSeries(10)
	// [5, 25) spans buckets 0 (5 units) and 1 (10) and 2 (5).
	s.AddSpread(5, 25, 20)
	if got := s.Bucket(0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("bucket 0 = %g, want 5", got)
	}
	if got := s.Bucket(1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("bucket 1 = %g, want 10", got)
	}
	if got := s.Bucket(2); math.Abs(got-5) > 1e-9 {
		t.Fatalf("bucket 2 = %g, want 5", got)
	}
}

// Property: AddSpread conserves total mass for arbitrary intervals.
func TestSeriesAddSpreadConservesMass(t *testing.T) {
	f := func(a, b uint16, v uint8) bool {
		t0, t1 := sim.Time(a), sim.Time(a)+sim.Time(b)+1
		val := float64(v) + 0.5
		s := NewSeries(7)
		s.AddSpread(t0, t1, val)
		var sum float64
		for i := 0; i < s.Len(); i++ {
			sum += s.Bucket(i)
		}
		return math.Abs(sum-val) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesRatePerSecond(t *testing.T) {
	s := NewSeries(sim.Millisecond)
	s.Add(0, 0.05) // 0.05 J in 1 ms = 50 W
	if got := s.RatePerSecond(0); math.Abs(got-50) > 1e-9 {
		t.Fatalf("rate = %g, want 50", got)
	}
}

func TestSeriesRebucket(t *testing.T) {
	s := NewSeries(1)
	for i := sim.Time(0); i < 10; i++ {
		s.Add(i, 1)
	}
	c := s.Rebucket(5)
	if c.Interval() != 5 {
		t.Fatalf("interval = %d", c.Interval())
	}
	if got := c.Bucket(0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("coarse bucket = %g, want 5", got)
	}
	// Rate semantics preserved: 1 unit/ns in both.
	if math.Abs(c.RatePerSecond(0)-s.RatePerSecond(0)) > 1e-6 {
		t.Fatalf("rebucket changed rate: %g vs %g", c.RatePerSecond(0), s.RatePerSecond(0))
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %g, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if p := s.Percentile(50); math.Abs(p-50.5) > 1e-9 {
		t.Fatalf("p50 = %g, want 50.5", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %g, want 1", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 = %g, want 100", p)
	}
	if m := s.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %g, want 50.5", m)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Sum() != 0 {
		t.Fatal("empty sample should yield zeros")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-5, 0.5, 5.5, 9.9, 15} {
		h.Observe(x)
	}
	if h.Bins[0] != 2 { // -5 clamps into bin 0 alongside 0.5
		t.Fatalf("bin 0 = %d, want 2", h.Bins[0])
	}
	if h.Bins[5] != 1 {
		t.Fatalf("bin 5 = %d, want 1", h.Bins[5])
	}
	if h.Bins[9] != 2 { // 9.9 plus clamped 15
		t.Fatalf("bin 9 = %d, want 2", h.Bins[9])
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramModes(t *testing.T) {
	h := NewHistogram(0, 20, 20)
	r := sim.NewRand(9)
	// Bimodal: masses near 5 and 15.
	for i := 0; i < 3000; i++ {
		h.Observe(5 + r.NormFloat64(0.6))
		h.Observe(15 + r.NormFloat64(0.6))
	}
	modes := h.Modes(0.05)
	if len(modes) < 2 {
		t.Fatalf("found %d modes (%v), want ≥2", len(modes), modes)
	}
	foundLow, foundHigh := false, false
	for _, m := range modes {
		if math.Abs(m-5) < 1.5 {
			foundLow = true
		}
		if math.Abs(m-15) < 1.5 {
			foundHigh = true
		}
	}
	if !foundLow || !foundHigh {
		t.Fatalf("modes %v missing expected masses at 5 and 15", modes)
	}
}
