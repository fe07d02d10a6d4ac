package model

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
)

// refMetricSeries is the layout MetricSeries replaced, kept as its
// reference: one stats.Series per component, a component written only when
// its value is nonzero, and Len the longest component. It is never trimmed.
type refMetricSeries struct {
	series [8]*stats.Series
}

func newRefMetricSeries(interval sim.Time) *refMetricSeries {
	r := &refMetricSeries{}
	for i := range r.series {
		r.series[i] = stats.NewSeries(interval)
	}
	return r
}

func (r *refMetricSeries) addSpread(t0, t1 sim.Time, m Metrics) {
	if t1 <= t0 {
		return
	}
	interval := r.series[0].Interval()
	scale := float64(t1-t0) / float64(interval)
	for i, v := range m.Vector() {
		if v == 0 {
			continue
		}
		r.series[i].AddSpread(t0, t1, v*scale)
	}
}

func (r *refMetricSeries) len() int {
	n := 0
	for _, s := range r.series {
		n = max(n, s.Len())
	}
	return n
}

func (r *refMetricSeries) at(b int) Metrics {
	var v [8]float64
	for i, s := range r.series {
		v[i] = s.Bucket(b)
	}
	m, _ := MetricsFromVector(v[:])
	return m
}

func (r *refMetricSeries) windowMean(lo, hi int) Metrics {
	if hi <= lo {
		return Metrics{}
	}
	var sum Metrics
	for b := lo; b < hi; b++ {
		sum = sum.Add(r.at(b))
	}
	return sum.Scale(1 / float64(hi-lo))
}

// sameMetrics reports whether a and b agree bit for bit.
func sameMetrics(a, b Metrics) bool {
	av, bv := a.Vector(), b.Vector()
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}

// seriesInterval is an odd bucket width, so spread writes split unevenly.
const seriesInterval = sim.Time(7)

// scriptMetrics returns a metric vector built from two script bytes, with
// component k nonzero only where bit k of mask is set.
func scriptMetrics(a, b byte, mask byte) Metrics {
	var v [8]float64
	for k := range v {
		if mask&(1<<k) != 0 {
			v[k] = float64(a)/8 + float64(b)/256 + 0.125*float64(k+1)
		}
	}
	m, _ := MetricsFromVector(v[:])
	return m
}

// deviceOnly is scriptMetrics' mask for the disk and net components.
const deviceOnly = 1<<6 | 1<<7

// checkMetricScript drives a MetricSeries and the reference layout through
// the same writes, decoded from ops, with the series also trimmed and
// probed below its frontier. Each op is an opcode byte and two parameter
// bytes a and b; lo is the frontier's first instant:
//
//	0  AddSpread from lo+a for b+1 ns, every component nonzero
//	1  AddSpread from lo+a for b%16+1 ns, components chosen by the bits of b
//	   (all zero when b is 0)
//	2  AddSpread from lo exactly, device components only
//	3  AddSpread of all-zero metrics, starting anywhere, below the frontier
//	   included: it must touch nothing and not panic
//	4  Trim, moving the frontier up by 0..31 buckets (past Len at times)
//	5  an empty or reversed period from lo+a, every component nonzero: it
//	   must touch nothing
//	6  a read, a WindowMean and a nonzero AddSpread below the frontier,
//	   each of which must panic
//	7  a write after a long silence, 64+a buckets past Len or the
//	   frontier, whichever is higher
//
// After every op, Len must agree, every bucket from the frontier to past
// Len must be bit-identical, as must WindowMean from the frontier to Len,
// and the series must hold less than twice its live part (or no released
// prefix at all), starting no higher than the frontier.
func checkMetricScript(t *testing.T, ops []byte) {
	t.Helper()
	ms, ref := NewMetricSeries(seriesInterval), newRefMetricSeries(seriesInterval)
	both := func(t0, t1 sim.Time, m Metrics) {
		ms.AddSpread(t0, t1, m)
		ref.addSpread(t0, t1, m)
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i]%8, ops[i+1], ops[i+2]
		lo := sim.Time(ms.frontier) * seriesInterval
		switch op {
		case 0:
			both(lo+sim.Time(a), lo+sim.Time(a)+sim.Time(b)+1, scriptMetrics(a, b, 0xff))
		case 1:
			both(lo+sim.Time(a), lo+sim.Time(a)+sim.Time(b%16)+1, scriptMetrics(a, b, b))
		case 2:
			both(lo, lo+sim.Time(a)+sim.Time(b)+1, scriptMetrics(a, b, deviceOnly))
		case 3:
			at := sim.Time(a) * sim.Time(b) % (lo + 64)
			both(at, at+sim.Time(b)+1, Metrics{})
		case 4:
			ms.Trim(ms.frontier + int(a%32))
		case 5:
			both(lo+sim.Time(a), lo+sim.Time(a)-sim.Time(b%4), scriptMetrics(a, b, 0xff))
		case 6:
			if ms.frontier == 0 {
				continue
			}
			below := ms.frontier - 1 - int(a)%ms.frontier
			at := sim.Time(below) * seriesInterval
			mustPanicBelow(t, ms, "read", func() { ms.At(below) })
			mustPanicBelow(t, ms, "read", func() { ms.WindowMean(below, ms.frontier+1) })
			mustPanicBelow(t, ms, "write", func() { ms.AddSpread(at, lo+sim.Time(b)+1, scriptMetrics(a, b, 1)) })
		case 7:
			t0 := sim.Time(max(ms.Len(), ms.frontier)+64+int(a)) * seriesInterval
			both(t0, t0+sim.Time(b)+1, scriptMetrics(a, b, b|1))
		}
		if ms.Len() != ref.len() {
			t.Fatalf("op %d: rows Len %d, reference %d", i/3, ms.Len(), ref.len())
		}
		for k := ms.frontier; k < ms.Len()+2; k++ {
			if got, want := ms.At(k), ref.at(k); !sameMetrics(got, want) {
				t.Fatalf("op %d: bucket %d = %+v, reference %+v (frontier %d)", i/3, k, got, want, ms.frontier)
			}
		}
		if got, want := ms.WindowMean(ms.frontier, ms.Len()), ref.windowMean(ms.frontier, ms.Len()); !sameMetrics(got, want) {
			t.Fatalf("op %d: window mean %+v, reference %+v", i/3, got, want)
		}
		if ms.base > ms.frontier {
			t.Fatalf("op %d: storage starts at bucket %d, above the frontier %d", i/3, ms.base, ms.frontier)
		}
		edge := min(ms.frontier, ms.Len())
		if dead, live := edge-ms.base, ms.Len()-edge; dead > 0 && dead >= live {
			t.Fatalf("op %d: %d released buckets still held against %d live", i/3, dead, live)
		}
	}
}

// mustPanicBelow runs f, which touches a bucket below ms's frontier, and
// requires a panic naming the operation and the frontier.
func mustPanicBelow(t *testing.T, ms *MetricSeries, op string, f func()) {
	t.Helper()
	want := fmt.Sprintf("below the trim frontier %d", ms.frontier)
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, op) || !strings.Contains(msg, want) {
			t.Fatalf("%s below the frontier: panic %q, want one naming %q and %q", op, msg, op, want)
		}
	}()
	f()
}

// TestMetricSeriesTrimMatchesUntrimmed runs random scripts through
// checkMetricScript.
func TestMetricSeriesTrimMatchesUntrimmed(t *testing.T) {
	rng := sim.NewRand(23)
	for n := 0; n < 300; n++ {
		ops := make([]byte, 3*(1+rng.Intn(80)))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		checkMetricScript(t, ops)
	}
}

// TestMetricSeriesTrimPanicsBelowFrontier pins the loud failure: once
// trimmed, every read or write below the frontier panics with the frontier
// in the message, as do the views that read from bucket 0. A period whose
// metrics are all zero writes nothing, so it does not.
func TestMetricSeriesTrimPanicsBelowFrontier(t *testing.T) {
	ms := NewMetricSeries(sim.Millisecond)
	ms.AddSpread(0, 10*sim.Millisecond, Metrics{Core: 1, Disk: 1})
	ms.Trim(4)
	mustPanicBelow(t, ms, "read", func() { ms.At(3) })
	mustPanicBelow(t, ms, "read", func() { ms.WindowMean(3, 5) })
	mustPanicBelow(t, ms, "read", func() { ms.ModeledPower(Coefficients{Core: 1}, 5) })
	mustPanicBelow(t, ms, "write", func() { ms.AddSpread(3*sim.Millisecond+999, 5*sim.Millisecond, Metrics{Net: 1}) })
	ms.AddSpread(0, 5*sim.Millisecond, Metrics{})
	if got := ms.At(4); got != (Metrics{Core: 1, Disk: 1}) {
		t.Fatalf("bucket 4 at the frontier = %+v, want Core 1 Disk 1", got)
	}
	ms.AddSpread(4*sim.Millisecond, 5*sim.Millisecond, Metrics{Core: 1})
	if got := ms.At(4).Core; got != 2 {
		t.Fatalf("bucket 4 Core after a write at the frontier = %g, want 2", got)
	}
	if ms.Trim(2); ms.frontier != 4 {
		t.Fatalf("a lower Trim moved the frontier to %d", ms.frontier)
	}
}

// TestMetricSeriesTrimReusesStorage pins the steady state a stream
// reaches: a series written and trimmed one window at a time keeps one
// backing array and allocates nothing.
func TestMetricSeriesTrimReusesStorage(t *testing.T) {
	ms := NewMetricSeries(sim.Millisecond)
	var now sim.Time
	step := func() {
		ms.AddSpread(now, now+100*sim.Millisecond, Metrics{Core: 1, Ins: 2, Disk: 0.5})
		now += 100 * sim.Millisecond
		ms.Trim(int((now - 300*sim.Millisecond) / sim.Millisecond))
	}
	for i := 0; i < 20; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady trimmed writes allocate %.1f times per window", allocs)
	}
	if ms.Retained() >= 2*400 {
		t.Fatalf("series holds %d buckets for a 300-bucket window", ms.Retained())
	}
}

// FuzzMetricSeries checks arbitrary write, trim and read scripts against
// the reference layout (see checkMetricScript).
func FuzzMetricSeries(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 9, 0, 1, 2, 40, 6, 1, 0, 2, 0, 0, 4, 31, 0, 6, 0, 9})
	f.Add([]byte{1, 200, 255, 4, 7, 0, 5, 0, 0, 2, 1, 1, 4, 30, 0, 6, 3, 3, 0, 0, 0})
	// All-zero metrics, above and below the frontier.
	f.Add([]byte{0, 9, 20, 4, 3, 0, 3, 1, 1, 1, 5, 0, 3, 200, 7, 4, 2, 0, 3, 0, 0})
	// Device-only metrics, spread from the frontier and as a masked write.
	f.Add([]byte{2, 4, 30, 4, 5, 0, 2, 0, 0, 1, 17, deviceOnly, 5, 0, 0, 2, 90, 1, 6, 1, 1})
	// A write after a long silence, behind a trim past Len.
	f.Add([]byte{0, 1, 2, 4, 31, 0, 4, 31, 0, 7, 0, 3, 6, 2, 2, 7, 255, 255, 0, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*128 {
			ops = ops[:3*128]
		}
		checkMetricScript(t, ops)
	})
}
