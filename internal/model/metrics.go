// Package model implements the paper's event-driven multicore power model:
// the metric vector of §3.1, the Eq. 1 (core-level events only) and Eq. 2
// (plus shared chip maintenance power) linear estimators, least-squares
// coefficient fitting, and the bucketed system-wide metric series that the
// alignment/recalibration machinery (§3.2) regresses against measured power.
package model

import (
	"fmt"

	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
)

// Metrics is the model input vector for one sampling period. CPU metrics
// are rates per *elapsed* core cycle, so a half-utilized core contributes
// half the rates of a fully-busy one:
//
//	Core  — non-halt cycles / elapsed cycles (utilization, Mcore)
//	Ins   — retired instructions per elapsed cycle (Mins)
//	Float — floating point ops per elapsed cycle (Mfloat)
//	Cache — last-level cache references per elapsed cycle (Mcache)
//	Mem   — memory transactions per elapsed cycle (Mmem)
//	Chip  — share of on-chip maintenance power, Eq. 3 (Mchipshare)
//	Disk, Net — device utilization fractions
//
// For a single task the metrics describe the core it runs on; for the whole
// system they are summed over cores (Chip then approximates the number of
// active chips, since the shares on one chip sum to ≈1).
type Metrics struct {
	Core  float64
	Ins   float64
	Float float64
	Cache float64
	Mem   float64
	Chip  float64
	Disk  float64
	Net   float64
}

// Add returns the element-wise sum.
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		Core: m.Core + o.Core, Ins: m.Ins + o.Ins, Float: m.Float + o.Float,
		Cache: m.Cache + o.Cache, Mem: m.Mem + o.Mem, Chip: m.Chip + o.Chip,
		Disk: m.Disk + o.Disk, Net: m.Net + o.Net,
	}
}

// Scale returns m with every field multiplied by f.
func (m Metrics) Scale(f float64) Metrics {
	return Metrics{
		Core: m.Core * f, Ins: m.Ins * f, Float: m.Float * f,
		Cache: m.Cache * f, Mem: m.Mem * f, Chip: m.Chip * f,
		Disk: m.Disk * f, Net: m.Net * f,
	}
}

// Max returns the element-wise maximum; calibration uses it to report the
// paper's C·Mmax table (§4.1).
func (m Metrics) Max(o Metrics) Metrics {
	mx := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	return Metrics{
		Core: mx(m.Core, o.Core), Ins: mx(m.Ins, o.Ins), Float: mx(m.Float, o.Float),
		Cache: mx(m.Cache, o.Cache), Mem: mx(m.Mem, o.Mem), Chip: mx(m.Chip, o.Chip),
		Disk: mx(m.Disk, o.Disk), Net: mx(m.Net, o.Net),
	}
}

// MetricNames lists the metric vector components in canonical order.
var MetricNames = []string{"core", "ins", "float", "cache", "mem", "chipshare", "disk", "net"}

// Vector returns the metrics in canonical order.
func (m Metrics) Vector() []float64 {
	return []float64{m.Core, m.Ins, m.Float, m.Cache, m.Mem, m.Chip, m.Disk, m.Net}
}

// MetricsFromVector is the inverse of Vector.
func MetricsFromVector(v []float64) (Metrics, error) {
	if len(v) != 8 {
		return Metrics{}, fmt.Errorf("model: metric vector has %d entries, want 8", len(v))
	}
	return Metrics{
		Core: v[0], Ins: v[1], Float: v[2], Cache: v[3],
		Mem: v[4], Chip: v[5], Disk: v[6], Net: v[7],
	}, nil
}

// Coefficients holds the calibrated linear model parameters (the C's of
// Eq. 1/2) plus the machine's constant idle power for reference. A zero
// Chip coefficient with IncludesChipShare=false is the paper's Approach #1;
// with the chip term it is Approach #2/3.
type Coefficients struct {
	IdleW float64 // Cidle — constant, not part of the active model

	Core  float64
	Ins   float64
	Float float64
	Cache float64
	Mem   float64
	Chip  float64
	Disk  float64
	Net   float64

	// IncludesChipShare records whether the chip maintenance term was
	// part of the fit (Eq. 2) or excluded (Eq. 1).
	IncludesChipShare bool
}

// Vector returns the coefficients in canonical metric order.
func (c Coefficients) Vector() []float64 {
	return []float64{c.Core, c.Ins, c.Float, c.Cache, c.Mem, c.Chip, c.Disk, c.Net}
}

// EstimateCPU returns the modeled active power of the processor-side terms
// only (everything except disk/net) — the per-task and package-scope
// estimate.
func (c Coefficients) EstimateCPU(m Metrics) float64 {
	return c.Core*m.Core + c.Ins*m.Ins + c.Float*m.Float +
		c.Cache*m.Cache + c.Mem*m.Mem + c.Chip*m.Chip
}

// Estimate returns the modeled whole-machine active power including device
// terms.
func (c Coefficients) Estimate(m Metrics) float64 {
	return c.EstimateCPU(m) + c.Disk*m.Disk + c.Net*m.Net
}

func (c Coefficients) String() string {
	return fmt.Sprintf("Coefficients{idle=%.1f core=%.2f ins=%.2f float=%.2f cache=%.1f mem=%.1f chip=%.2f disk=%.2f net=%.2f}",
		c.IdleW, c.Core, c.Ins, c.Float, c.Cache, c.Mem, c.Chip, c.Disk, c.Net)
}

// MetricSeries stores time-weighted system-wide metrics on the fixed
// stats.BucketWidth grid, the recorder's and the meters' 1 ms grid that
// alignment regresses it against: bucket b holds the time-average of each
// metric over the bucket, summed across cores, as one Metrics row. The
// facility feeds it from every attribution period; recalibration regresses
// its buckets against aligned meter readings, and the modeled-power trace
// for alignment is computed from it.
//
// Rows live in fixed-size chunks, so a series grows without copying what
// it holds. A long-lived consumer bounds the series' memory with Trim:
// buckets below the trim frontier can no longer be read or written, and
// the chunks wholly below it are released. Bucket indices stay absolute,
// so Len and every bucket at or above the frontier read exactly as they
// would on the untrimmed series.
type MetricSeries struct {
	rows stats.Chunked[Metrics]
	// frontier is the lowest bucket that may still be read or written
	// (0 until the first Trim).
	frontier int
}

// NewMetricSeries returns an empty metric series.
func NewMetricSeries() *MetricSeries { return &MetricSeries{} }

// Interval returns the bucket width.
func (ms *MetricSeries) Interval() sim.Time { return stats.BucketWidth }

// Len returns the number of buckets touched so far, counting released
// ones: the index one past the last bucket written.
func (ms *MetricSeries) Len() int { return ms.rows.Len() }

// Retained returns how many buckets the series' chunks hold in memory.
func (ms *MetricSeries) Retained() int { return ms.rows.Held() }

// frontierError is the panic value of a read or write of a bucket below
// the trim frontier: whoever trimmed released data a reader or writer
// still needed. Panicking with a plain value, formatted only when printed,
// keeps At small enough to inline.
type frontierError struct {
	op       string // "read" or "write"
	bucket   int
	frontier int
}

func (e frontierError) Error() string {
	return fmt.Sprintf("model: %s of metric bucket %d below the trim frontier %d", e.op, e.bucket, e.frontier)
}

// AddSpread accumulates a period's metrics over [t0, t1): each bucket gains
// metric × (overlap / interval), so a fully covered bucket of a fully
// utilized core accumulates Core = 1. Each nonzero component k of the
// bucket a period overlaps by ov gains (m_k·scale)·ov/total, where total
// is the period's length and scale its length in buckets; a zero
// component is left alone, and a period whose metrics are all zero
// touches nothing. It panics when the period starts below the trim
// frontier.
//
//pclint:hotpath
func (ms *MetricSeries) AddSpread(t0, t1 sim.Time, m Metrics) {
	if t1 <= t0 {
		return
	}
	// Exact zeros, as below: a period that observed no metric writes
	// nothing.
	if m == (Metrics{}) {
		return
	}
	first, last := int(t0/stats.BucketWidth), int((t1-1)/stats.BucketWidth)
	if first < ms.frontier {
		panic(frontierError{"write", first, ms.frontier})
	}
	ms.rows.Grow(last)
	total := float64(t1 - t0)
	scale := total / float64(stats.BucketWidth)
	lo := sim.Time(first) * stats.BucketWidth
	for b := first; b <= last; b++ {
		hi := lo + stats.BucketWidth
		ov := float64(min(hi, t1) - max(lo, t0))
		r := ms.rows.At(b)
		spread(&r.Core, m.Core, scale, ov, total)
		spread(&r.Ins, m.Ins, scale, ov, total)
		spread(&r.Float, m.Float, scale, ov, total)
		spread(&r.Cache, m.Cache, scale, ov, total)
		spread(&r.Mem, m.Mem, scale, ov, total)
		spread(&r.Chip, m.Chip, scale, ov, total)
		spread(&r.Disk, m.Disk, scale, ov, total)
		spread(&r.Net, m.Net, scale, ov, total)
		lo = hi
	}
}

// spread adds one component's share of a bucket, (v·scale)·ov/total, to
// *p, and leaves *p alone when v is exactly zero.
func spread(p *float64, v, scale, ov, total float64) {
	//pclint:allow floatsafe exact-zero fast path skipping metrics that were never observed
	if v == 0 {
		return
	}
	//pclint:allow floatsafe total = t1-t0 is positive: AddSpread returned on empty and reversed periods
	*p += v * scale * ov / total
}

// Trim advances the trim frontier to bucket f: from then on a read or
// write of a bucket below f panics, and the chunks wholly below f are
// released. A frontier at or below the current one leaves the series as it
// is.
func (ms *MetricSeries) Trim(f int) {
	if f <= ms.frontier {
		return
	}
	ms.frontier = f
	ms.rows.Release(f)
}

// At returns the time-averaged metrics of bucket b: its row, or zero for a
// bucket never written. It panics for a bucket below the trim frontier.
func (ms *MetricSeries) At(b int) Metrics {
	if b < ms.frontier && b >= 0 {
		panic(frontierError{"read", b, ms.frontier})
	}
	if b < 0 || b >= ms.Len() {
		return Metrics{}
	}
	return *ms.rows.At(b)
}

// WindowMean returns the mean metrics over buckets [lo, hi).
func (ms *MetricSeries) WindowMean(lo, hi int) Metrics {
	if hi <= lo {
		return Metrics{}
	}
	var sum Metrics
	for b := lo; b < hi; b++ {
		sum = sum.Add(ms.At(b))
	}
	return sum.Scale(1 / float64(hi-lo))
}

// ModeledPower returns the modeled active power series (watts per bucket)
// under the given coefficients, for buckets [0, n).
func (ms *MetricSeries) ModeledPower(c Coefficients, n int) []float64 {
	if max := ms.Len(); n > max {
		n = max
	}
	out := make([]float64, n)
	for b := 0; b < n; b++ {
		out[b] = c.Estimate(ms.At(b))
	}
	return out
}
