// Package stats provides the time-series and distribution utilities shared
// by the power model, the alignment machinery, and the experiment harness:
// fixed-interval bucketed series, cross-correlation (the paper's Eq. 4),
// histograms, and streaming summary statistics.
package stats

import (
	"fmt"
	"math"

	"powercontainers/internal/sim"
)

// Series is a time series sampled on a fixed-interval grid starting at time
// zero. Values accumulate into buckets; reading yields the per-bucket mean
// rate, which is how both the ground-truth power recorder and the modeled
// power estimate are stored (energy per bucket → average watts per bucket).
type Series struct {
	interval sim.Time
	buckets  []float64
	// dirtyLo is the lowest bucket index written since the last ClearDirty
	// (len(buckets) and above meaning "nothing dirty"). It lets a single
	// derived-series consumer recompute only the suffix that may have
	// changed: writes are not append-only (AddSpread can reach back into
	// old buckets), so a low-water mark is the cheapest sound summary.
	dirtyLo int
}

// NewSeries returns a series with the given bucket interval.
func NewSeries(interval sim.Time) *Series {
	if interval <= 0 {
		panic("stats: non-positive series interval")
	}
	return &Series{interval: interval, dirtyLo: clean}
}

// clean is the dirtyLo sentinel meaning "no writes since ClearDirty". A
// zero-value Series conservatively reports bucket 0 dirty, which is safe
// (consumers recompute everything) just not fast.
const clean = int(^uint(0) >> 1) // max int

func (s *Series) markDirty(idx int) {
	if idx < s.dirtyLo {
		s.dirtyLo = idx
	}
}

// DirtyLow returns the lowest bucket index written since the last
// ClearDirty; any value ≥ Len() means no bucket changed. The dirty mark is
// a single shared low-water value, so it supports one consumer: whoever
// calls ClearDirty owns the incremental view.
func (s *Series) DirtyLow() int { return s.dirtyLo }

// ClearDirty resets the dirty mark; see DirtyLow.
func (s *Series) ClearDirty() { s.dirtyLo = clean }

// Interval returns the bucket width.
func (s *Series) Interval() sim.Time { return s.interval }

// Len returns the number of buckets touched so far.
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
	s.markDirty(idx)
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
	first := t0 / s.interval
	last := (t1 - 1) / s.interval
	s.grow(int(last))
	s.markDirty(int(first))
	for b := first; b <= last; b++ {
		lo := b * s.interval
		hi := lo + s.interval
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		//pclint:allow floatsafe total = t1-t0 is positive: the reversed/empty interval cases returned or panicked above
		s.buckets[b] += value * float64(hi-lo) / total
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
		out.markDirty(i / factor)
	}
	return out
}

// CrossCorrelation computes the paper's Eq. 4: the raw inner product between
// the measurement series and the model series at a hypothetical measurement
// delay of lag buckets. measured[i] is compared against model[i+lag].
// Both slices must be per-bucket rates on the same grid.
func CrossCorrelation(measured, model []float64, lag int) float64 {
	var sum float64
	for i := range measured {
		j := i + lag
		if j < 0 || j >= len(model) {
			continue
		}
		sum += measured[i] * model[j]
	}
	return sum
}

// NormalizedCrossCorrelation subtracts each series' mean and divides by the
// standard deviations, yielding a correlation in [-1, 1] that is robust to
// constant offsets (e.g. idle power in the measurement but not the model).
func NormalizedCrossCorrelation(measured, model []float64, lag int) float64 {
	var mx, my float64
	n := 0
	for i := range measured {
		j := i + lag
		if j < 0 || j >= len(model) {
			continue
		}
		mx += measured[i]
		my += model[j]
		n++
	}
	if n < 2 {
		return 0
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := range measured {
		j := i + lag
		if j < 0 || j >= len(model) {
			continue
		}
		dx := measured[i] - mx
		dy := model[j] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	//pclint:allow floatsafe exactly-zero variance means a bit-constant series; a tolerance would misclassify genuinely near-constant data
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// String describes the series briefly.
func (s *Series) String() string {
	return fmt.Sprintf("Series(interval=%s, buckets=%d)", sim.FormatTime(s.interval), len(s.buckets))
}
