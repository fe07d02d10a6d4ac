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
//
// A long-lived consumer bounds a series' memory with Trim: buckets below
// the trim frontier can no longer be read or written, and their storage
// is released in place. Bucket indices stay absolute, so Len, DirtyLow and
// every bucket at or above the frontier read exactly as they would on the
// untrimmed series.
type Series struct {
	interval sim.Time
	// buckets holds buckets [base, base+len(buckets)) in one contiguous
	// slice; the prefix below base has been released.
	buckets []float64
	base    int
	// frontier is the lowest bucket that may still be read or written
	// (0 until the first Trim). base ≤ frontier: Trim moves the frontier
	// at once and releases storage in batches.
	frontier int
	// dirtyLo is the lowest bucket index written since the last ClearDirty
	// (Len() and above meaning "nothing dirty"). It lets a single
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

func (s *Series) markDirty(idx int) { s.dirtyLo = min(s.dirtyLo, idx) }

// DirtyLow returns the lowest bucket index written since the last
// ClearDirty; any value ≥ Len() means no bucket changed. The dirty mark is
// a single shared low-water value, so it supports one consumer: whoever
// calls ClearDirty owns the incremental view.
func (s *Series) DirtyLow() int { return s.dirtyLo }

// ClearDirty resets the dirty mark; see DirtyLow.
func (s *Series) ClearDirty() { s.dirtyLo = clean }

// Interval returns the bucket width.
func (s *Series) Interval() sim.Time { return s.interval }

// Len returns the number of buckets touched so far, counting released
// ones: the index one past the last bucket written.
func (s *Series) Len() int { return s.base + len(s.buckets) }

// Retained returns how many buckets the series holds in memory.
func (s *Series) Retained() int { return len(s.buckets) }

// Trim advances the trim frontier to bucket f: from then on a read or
// write of a bucket below f panics. A frontier at or below the current
// one leaves the series as it is. The live part, frontier to Len, is
// copied down to the start of the backing array only once the released
// prefix is at least as long as it, so each bucket moves about once and
// a steady trimmed stream reuses one array instead of reallocating it.
func (s *Series) Trim(f int) {
	if f <= s.frontier {
		return
	}
	s.frontier = f
	dead := min(f, s.Len()) - s.base
	if live := len(s.buckets) - dead; dead < live {
		return
	}
	s.buckets = s.buckets[:copy(s.buckets, s.buckets[dead:])]
	s.base += dead
}

// frontierError is the panic value of a read or write of a bucket below
// a series' trim frontier: whoever trimmed released data a reader or
// writer still needed. Panicking with a plain value, formatted only when
// printed, keeps Add and Bucket small enough to inline.
type frontierError struct {
	op       string // "read" or "write"
	bucket   int
	frontier int
}

func (e frontierError) Error() string {
	return fmt.Sprintf("stats: %s of bucket %d below the trim frontier %d", e.op, e.bucket, e.frontier)
}

// grow ensures bucket idx, at or above the frontier, exists. A series
// holding nothing restarts its storage at the frontier, so a write after
// a long silence does not fill the released gap behind it with zeros.
func (s *Series) grow(idx int) {
	for len(s.buckets) <= idx-s.base {
		if len(s.buckets) == 0 {
			s.base = s.frontier
		}
		s.buckets = append(s.buckets, 0)
	}
}

// Add accumulates value into the bucket containing time t.
func (s *Series) Add(t sim.Time, value float64) {
	if t < 0 {
		panic("stats: negative time")
	}
	idx := int(t / s.interval)
	if idx < s.frontier {
		panic(frontierError{"write", idx, s.frontier})
	}
	s.grow(idx)
	s.buckets[idx-s.base] += value
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
	first := int(t0 / s.interval)
	last := int((t1 - 1) / s.interval)
	if first < s.frontier {
		panic(frontierError{"write", first, s.frontier})
	}
	s.grow(last)
	s.markDirty(first)
	span := s.buckets[first-s.base : last-s.base+1]
	lo := sim.Time(first) * s.interval
	for i := range span {
		hi := lo + s.interval
		//pclint:allow floatsafe total = t1-t0 is positive: the reversed/empty interval cases returned or panicked above
		span[i] += value * float64(min(hi, t1)-max(lo, t0)) / total
		lo = hi
	}
}

// Bucket returns the accumulated value of bucket i (0 if never touched).
// It panics for a bucket below the trim frontier.
func (s *Series) Bucket(i int) float64 {
	if i < s.frontier && i >= 0 {
		panic(frontierError{"read", i, s.frontier})
	}
	if i < 0 || i >= s.Len() {
		return 0
	}
	return s.buckets[i-s.base]
}

// Values returns a copy of all bucket values. It panics on a trimmed
// series, which no longer holds them all.
func (s *Series) Values() []float64 {
	if s.frontier > 0 {
		panic(frontierError{"read", 0, s.frontier})
	}
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
	if s.frontier > 0 {
		panic(frontierError{"read", 0, s.frontier})
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

// String describes the series briefly.
func (s *Series) String() string {
	return fmt.Sprintf("Series(interval=%s, buckets=%d)", sim.FormatTime(s.interval), s.Len())
}
