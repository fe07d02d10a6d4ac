package stats

import "sort"

// Summary accumulates a streaming count, mean, min and max; the mean takes
// Welford's running update. The zero value is ready to use.
type Summary struct {
	n        int
	mean     float64
	min, max float64
}

// Observe adds a value.
func (s *Summary) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	//pclint:allow floatsafe s.n was just incremented, so it is at least 1
	s.mean += d / float64(s.n)
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// Sample retains every observation for percentile queries and histograms.
// The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Observe adds a value.
func (s *Sample) Observe(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation, or 0 if the sample is empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	pos := p / 100 * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Values returns a copy of the observations in insertion-then-sorted order
// (sorting state depends on prior percentile queries); callers should not
// rely on ordering.
func (s *Sample) Values() []float64 { return append([]float64(nil), s.xs...) }

// Histogram bins observations into fixed-width bins over [lo, hi). Values
// outside the range clamp into the first/last bin, matching how the paper's
// distribution figures render tails.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	total  int
}

// NewHistogram returns a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n)}
}

// Observe adds a value.
func (h *Histogram) Observe(x float64) {
	//pclint:allow floatsafe NewHistogram rejects hi <= lo at construction
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Bins) {
		idx = len(h.Bins) - 1
	}
	h.Bins[idx]++
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return h.total }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	//pclint:allow floatsafe NewHistogram rejects empty bin sets at construction
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + (float64(i)+0.5)*w
}

// Fraction returns the fraction of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Bins[i]) / float64(h.total)
}

// Modes returns the bin-center values of the local maxima whose mass exceeds
// minFraction of the total; experiments use it to locate the distribution
// masses the paper labels (e.g. Vosao vs power-virus request power).
func (h *Histogram) Modes(minFraction float64) []float64 {
	var modes []float64
	for i := range h.Bins {
		if h.Fraction(i) < minFraction {
			continue
		}
		left := 0
		if i > 0 {
			left = h.Bins[i-1]
		}
		right := 0
		if i < len(h.Bins)-1 {
			right = h.Bins[i+1]
		}
		if h.Bins[i] >= left && h.Bins[i] >= right && (h.Bins[i] > left || h.Bins[i] > right) {
			modes = append(modes, h.BinCenter(i))
		}
	}
	return modes
}
