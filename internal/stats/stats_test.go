package stats

import (
	"math"
	"testing"
	"testing/quick"

	"powercontainers/internal/sim"
)

func TestSeriesAddAndBucket(t *testing.T) {
	s := NewSeries()
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
	s := NewSeries()
	// [0.5, 2.5) buckets spans buckets 0 (half), 1 (whole) and 2 (half).
	s.AddSpread(BucketWidth/2, 5*BucketWidth/2, 20)
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

// Property: AddSpread conserves total mass for arbitrary intervals. Times
// are in units of a seventh of a bucket, rounded down, so spreads split
// unevenly at the bucket edges.
func TestSeriesAddSpreadConservesMass(t *testing.T) {
	const unit = BucketWidth / 7
	f := func(a, b uint16, v uint8) bool {
		t0, t1 := sim.Time(a)*unit, (sim.Time(a)+sim.Time(b)+1)*unit
		val := float64(v) + 0.5
		s := NewSeries()
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
	s := NewSeries()
	s.Add(0, 0.05) // 0.05 J in 1 ms = 50 W
	if got := s.RatePerSecond(0); math.Abs(got-50) > 1e-9 {
		t.Fatalf("rate = %g, want 50", got)
	}
}

func TestSeriesRebucket(t *testing.T) {
	s := NewSeries()
	for i := sim.Time(0); i < 12; i++ {
		s.Add(i*BucketWidth, 1)
	}
	c := s.CoarseRates(5)
	if len(c) != 3 {
		t.Fatalf("%d coarse buckets, want 3", len(c))
	}
	// Rate semantics preserved: one unit per bucket in every coarse
	// bucket, the partial last one included.
	for i, r := range c {
		if math.Abs(r-s.RatePerSecond(0)) > 1e-6 {
			t.Fatalf("coarse bucket %d rate %g, fine rate %g", i, r, s.RatePerSecond(0))
		}
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
}

func TestSampleMean(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if s.Count() != 100 {
		t.Fatalf("count = %d, want 100", s.Count())
	}
	if m := s.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %g, want 50.5", m)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Count() != 0 || s.Mean() != 0 {
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
