// Package stats provides the time-series and distribution utilities shared
// by the power model, the alignment machinery, and the experiment harness:
// fixed-interval bucketed series, histograms, and streaming summary
// statistics.
package stats

import (
	"fmt"

	"powercontainers/internal/sim"
)

// BucketWidth is the grid of every Series and of the facility's metric
// series: 1 ms, the resolution of the recorder and of the on-chip meter.
// A constant width lets each write find its bucket with a multiply
// instead of a division.
const BucketWidth = sim.Millisecond

// Series is a time series sampled on the fixed BucketWidth grid starting at
// time zero. Values accumulate into buckets; reading yields the per-bucket
// mean rate, which is how the ground-truth power recorder stores energy
// (energy per bucket → average watts per bucket). Buckets live in
// fixed-size chunks, so growing the series never copies it.
type Series struct {
	buckets Chunked[float64]
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Interval returns the bucket width.
func (s *Series) Interval() sim.Time { return BucketWidth }

// Len returns the number of buckets touched so far: the index one past the
// last bucket written.
func (s *Series) Len() int { return s.buckets.Len() }

// Add accumulates value into the bucket containing time t.
//
//pclint:hotpath
func (s *Series) Add(t sim.Time, value float64) {
	if t < 0 {
		panic("stats: negative time")
	}
	idx := int(t / BucketWidth)
	s.buckets.Grow(idx)
	*s.buckets.At(idx) += value
}

// AddSpread distributes value over the interval [t0, t1) proportionally to
// each bucket's overlap. It is used to integrate energy over task execution
// segments that straddle bucket boundaries.
//
//pclint:hotpath
func (s *Series) AddSpread(t0, t1 sim.Time, value float64) {
	if t1 <= t0 {
		if t1 == t0 {
			return
		}
		panic("stats: AddSpread with reversed interval")
	}
	total := float64(t1 - t0)
	first := int(t0 / BucketWidth)
	last := int((t1 - 1) / BucketWidth)
	s.buckets.Grow(last)
	lo := sim.Time(first) * BucketWidth
	for i := first; i <= last; i++ {
		hi := lo + BucketWidth
		//pclint:allow floatsafe total = t1-t0 is positive: the reversed/empty interval cases returned or panicked above
		*s.buckets.At(i) += value * float64(min(hi, t1)-max(lo, t0)) / total
		lo = hi
	}
}

// Bucket returns the accumulated value of bucket i (0 if never touched).
func (s *Series) Bucket(i int) float64 {
	if i < 0 || i >= s.buckets.Len() {
		return 0
	}
	return *s.buckets.At(i)
}

// Values returns a copy of all bucket values.
func (s *Series) Values() []float64 {
	out := make([]float64, s.Len())
	for i := range out {
		out[i] = *s.buckets.At(i)
	}
	return out
}

// RatePerSecond converts a per-bucket accumulated quantity (e.g. joules) to
// a per-second rate (e.g. watts) for bucket i.
func (s *Series) RatePerSecond(i int) float64 {
	return s.Bucket(i) * float64(sim.Second) / float64(BucketWidth)
}

// CoarseRates aggregates the series into buckets factor times wider and
// returns each one's per-second rate. A coarse bucket averages (not sums)
// the fine buckets it covers and scales back up by factor, so a partial
// last bucket reports the rate of the part it covers.
func (s *Series) CoarseRates(factor int) []float64 {
	if factor <= 0 {
		panic("stats: non-positive rebucket factor")
	}
	n := s.Len()
	out := make([]float64, 0, (n+factor-1)/factor)
	for i := 0; i < n; i += factor {
		var sum float64
		k := 0
		for j := i; j < i+factor && j < n; j++ {
			sum += *s.buckets.At(j)
			k++
		}
		//pclint:allow floatsafe k >= 1: the inner loop always runs for j = i, which is in range
		total := sum * float64(factor) / float64(k)
		out = append(out, total*float64(sim.Second)/float64(BucketWidth*sim.Time(factor)))
	}
	return out
}

// String describes the series briefly.
func (s *Series) String() string {
	return fmt.Sprintf("Series(interval=%s, buckets=%d)", sim.FormatTime(BucketWidth), s.Len())
}
