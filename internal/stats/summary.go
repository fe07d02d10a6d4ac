package stats

// Summary accumulates a streaming count and mean; the mean takes Welford's
// running update. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
}

// Observe adds a value.
func (s *Summary) Observe(x float64) {
	s.n++
	d := x - s.mean
	//pclint:allow floatsafe s.n was just incremented, so it is at least 1
	s.mean += d / float64(s.n)
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Sample accumulates a running count and sum, so its mean is the sum of
// the observations in arrival order over their count. The zero value is
// ready to use.
type Sample struct {
	n   int
	sum float64
}

// Observe adds a value.
func (s *Sample) Observe(x float64) {
	s.n++
	s.sum += x
}

// Count returns the number of observations.
func (s *Sample) Count() int { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

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
