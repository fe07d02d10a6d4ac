// Package stats provides the time-series and distribution utilities shared
// by the power model, the alignment machinery, and the experiment harness:
// fixed-interval bucketed series, histograms, and streaming summary
// statistics.
package stats

import (
	"fmt"

	"powercontainers/internal/sim"
)

// Series is a time series sampled on a fixed-interval grid starting at time
// zero. Values accumulate into buckets; reading yields the per-bucket mean
// rate, which is how both the ground-truth power recorder and the modeled
// power estimate are stored (energy per bucket → average watts per bucket).
type Series struct {
	interval sim.Time
	buckets  []float64
}

// NewSeries returns a series with the given bucket interval.
func NewSeries(interval sim.Time) *Series {
	if interval <= 0 {
		panic("stats: non-positive series interval")
	}
	return &Series{interval: interval}
}

// Interval returns the bucket width.
func (s *Series) Interval() sim.Time { return s.interval }

// Len returns the number of buckets touched so far: the index one past the
// last bucket written.
func (s *Series) Len() int { return len(s.buckets) }

// grow ensures bucket idx exists.
func (s *Series) grow(idx int) {
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
}

// Add accumulates value into the bucket containing time t.
func (s *Series) Add(t sim.Time, value float64) {
	if t < 0 {
		panic("stats: negative time")
	}
	idx := int(t / s.interval)
	s.grow(idx)
	s.buckets[idx] += value
}

// AddSpread distributes value over the interval [t0, t1) proportionally to
// each bucket's overlap. It is used to integrate energy over task execution
// segments that straddle bucket boundaries.
func (s *Series) AddSpread(t0, t1 sim.Time, value float64) {
	if t1 <= t0 {
		if t1 == t0 {
			return
		}
		panic("stats: AddSpread with reversed interval")
	}
	total := float64(t1 - t0)
	first := int(t0 / s.interval)
	last := int((t1 - 1) / s.interval)
	s.grow(last)
	span := s.buckets[first : last+1]
	lo := sim.Time(first) * s.interval
	for i := range span {
		hi := lo + s.interval
		//pclint:allow floatsafe total = t1-t0 is positive: the reversed/empty interval cases returned or panicked above
		span[i] += value * float64(min(hi, t1)-max(lo, t0)) / total
		lo = hi
	}
}

// Bucket returns the accumulated value of bucket i (0 if never touched).
func (s *Series) Bucket(i int) float64 {
	if i < 0 || i >= len(s.buckets) {
		return 0
	}
	return s.buckets[i]
}

// Values returns a copy of all bucket values.
func (s *Series) Values() []float64 {
	return append([]float64(nil), s.buckets...)
}

// RatePerSecond converts a per-bucket accumulated quantity (e.g. joules) to
// a per-second rate (e.g. watts) for bucket i.
func (s *Series) RatePerSecond(i int) float64 {
	//pclint:allow floatsafe NewSeries rejects non-positive intervals at construction
	return s.Bucket(i) * float64(sim.Second) / float64(s.interval)
}

// Rebucket aggregates the series into coarser buckets whose width is factor
// times the original interval, averaging (not summing) the fine buckets so
// that rate semantics are preserved.
func (s *Series) Rebucket(factor int) *Series {
	if factor <= 0 {
		panic("stats: non-positive rebucket factor")
	}
	out := NewSeries(s.interval * sim.Time(factor))
	for i := 0; i < len(s.buckets); i += factor {
		var sum float64
		n := 0
		for j := i; j < i+factor && j < len(s.buckets); j++ {
			sum += s.buckets[j]
			n++
		}
		out.grow(i / factor)
		// Scale so that the coarse bucket holds the total accumulated
		// quantity (sum), keeping Add/AddSpread semantics consistent.
		//pclint:allow floatsafe n >= 1: the inner loop always runs for j = i, which is in range
		out.buckets[i/factor] = sum * float64(factor) / float64(n)
	}
	return out
}

// String describes the series briefly.
func (s *Series) String() string {
	return fmt.Sprintf("Series(interval=%s, buckets=%d)", sim.FormatTime(s.interval), s.Len())
}
