package power

import (
	"fmt"
	"math"

	"powercontainers/internal/sim"
)

// Meter drift: real instruments wander slowly with temperature and supply
// conditions. Readings are scaled by 1 + amp·sin(2πt/period + φ), with the
// phase derived from the meter seed. Drift is what keeps online
// recalibration from ever driving its residual to exactly zero.
const (
	chipDriftAmp       = 0.004
	chipDriftPeriod    = 7 * sim.Second
	wattsupDriftAmp    = 0.015
	wattsupDriftPeriod = 13 * sim.Second
)

// driftFactor returns the multiplicative drift at time t.
func driftFactor(seed uint64, amp float64, period, t sim.Time) float64 {
	phase := 2 * math.Pi * float64(seed%997) / 997
	//pclint:allow floatsafe callers pass the positive drift-period constants above
	return 1 + amp*math.Sin(2*math.Pi*float64(t)/float64(period)+phase)
}

// Scope identifies what a meter measures.
type Scope int

const (
	// ScopePackage covers the processor socket package: cores, uncore,
	// memory controller and interconnect (the SandyBridge on-chip meter).
	ScopePackage Scope = iota
	// ScopeMachine covers the whole machine at the wall (Wattsup).
	ScopeMachine
)

func (s Scope) String() string {
	if s == ScopePackage {
		return "package"
	}
	return "machine"
}

// ReadFresh returns the meter samples a cursor-tracking consumer has not
// yet seen — Read(now)[seen:] — along with the advanced cursor. Meters
// implementing SinceReader skip rematerializing the already-consumed
// prefix, so a long-running consumer's per-pull cost is proportional to
// the fresh tail, not the full history. The recalibrator and the
// streaming engine both sit on this helper.
func ReadFresh(m Meter, now sim.Time, seen int) ([]Sample, int) {
	if sr, ok := m.(SinceReader); ok {
		fresh := sr.ReadSince(now, seen)
		return fresh, seen + len(fresh)
	}
	all := m.Read(now)
	if len(all) <= seen {
		return nil, seen
	}
	return all[seen:], len(all)
}

// ActiveMean averages a meter's active power (reading minus IdleW) over
// the windows that lie wholly inside [t0, t1) and were delivered by now.
// It selects windows by their true Start, so it serves offline
// calibration and experiment measurement, never the online facility.
func ActiveMean(m Meter, now, t0, t1 sim.Time) (float64, error) {
	var sum float64
	n := 0
	for _, s := range m.Read(now) {
		if s.Start >= t0 && s.Start+m.Interval() <= t1 {
			sum += s.Watts - m.IdleW()
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("power: no %s samples in [%s,%s)", m.Name(), sim.FormatTime(t0), sim.FormatTime(t1))
	}
	return sum / float64(n), nil
}

// Sample is one delivered meter reading.
type Sample struct {
	// Start is the true beginning of the measurement window. It is
	// ground truth for tests and figure rendering only: online
	// consumers (alignment, recalibration) must use Arrival and the
	// delay they estimated, exactly as the paper's facility must.
	Start sim.Time
	// Arrival is when the reading became available (window end plus the
	// meter's delivery delay).
	Arrival sim.Time
	// Watts is the mean power over the window.
	Watts float64
}

// Meter is a power measurement instrument. Readings arrive with a delivery
// delay (meter reporting plus data I/O latency, §3.2), which is exactly the
// lag the alignment machinery has to discover via cross-correlation.
type Meter interface {
	// Name identifies the instrument.
	Name() string
	// Interval is the measurement window width.
	Interval() sim.Time
	// Delay is the true delivery lag. Consumers must not use it for
	// alignment — it exists so tests can verify the estimated delay.
	Delay() sim.Time
	// Scope reports what the meter covers.
	Scope() Scope
	// IdleW is the constant idle power within the meter's scope.
	// Operators measure it once on a quiescent machine; experiments use
	// it to convert full readings to active power.
	IdleW() float64
	// Read returns all samples whose delivery time (window end + delay)
	// is ≤ now, in window order.
	Read(now sim.Time) []Sample
}

// SinceReader is an optional Meter capability: ReadSince(now, skip) returns
// Read(now)[skip:] without materializing the skipped prefix. Consumers that
// poll repeatedly (online recalibration) would otherwise pay O(t) per poll
// re-deriving samples they have already consumed — O(t²) over a run. Both
// simulated meters derive each sample independently per bucket (noise and
// drift are pure functions of the bucket index), so starting mid-stream
// yields bit-identical samples to a full Read.
type SinceReader interface {
	ReadSince(now sim.Time, skip int) []Sample
}

// bucketNoise derives a deterministic gaussian noise value for a bucket
// index so that repeated Reads of the same window return identical samples.
func bucketNoise(seed uint64, bucket int, sd float64) float64 {
	if sd <= 0 {
		return 0
	}
	x := seed ^ (uint64(bucket)+1)*0x9e3779b97f4a7c15
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	a := mix(x)
	b := mix(x ^ 0xd1b54a32d192ed03)
	u1 := (float64(a>>11) + 0.5) / (1 << 53)
	u2 := float64(b>>11) / (1 << 53)
	return sd * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ChipMeter models the SandyBridge on-chip package power meter: it
// accumulates package energy once per millisecond and delivers readings
// with roughly a millisecond of lag (§3.2 measured ≈1 ms).
type ChipMeter struct {
	rec   *Recorder
	delay sim.Time
	seed  uint64
}

// NewChipMeter returns the on-chip meter for the recorder's machine.
func NewChipMeter(rec *Recorder, seed uint64) *ChipMeter {
	return &ChipMeter{rec: rec, delay: 1 * sim.Millisecond, seed: seed}
}

// Name implements Meter.
func (m *ChipMeter) Name() string { return "chip-meter" }

// Interval implements Meter.
func (m *ChipMeter) Interval() sim.Time { return RecorderInterval }

// Delay implements Meter.
func (m *ChipMeter) Delay() sim.Time { return m.delay }

// Scope implements Meter.
func (m *ChipMeter) Scope() Scope { return ScopePackage }

// IdleW implements Meter: total package idle across all chips.
func (m *ChipMeter) IdleW() float64 {
	return m.rec.Profile().PkgIdleW * float64(m.rec.Spec().Chips)
}

// Read implements Meter.
func (m *ChipMeter) Read(now sim.Time) []Sample {
	return m.ReadSince(now, 0)
}

// ReadSince implements SinceReader: each bucket's sample is a pure function
// of the bucket index, so starting the scan at skip returns exactly
// Read(now)[skip:].
func (m *ChipMeter) ReadSince(now sim.Time, skip int) []Sample {
	m.rec.FlushUntil(now)
	series := m.rec.PkgActiveSeries()
	// Clamp skip to [0, delivered]: bucket b is delivered iff
	// (b+1)·interval + delay ≤ now, so `avail` below is exactly
	// len(Read(now)). An oversized cursor (one that outran a truncated or
	// faulted history) must yield an empty tail — and must be clamped
	// before the scan loop, where sim.Time(b)*RecorderInterval would
	// overflow for huge skips.
	if skip < 0 {
		skip = 0
	}
	if avail := int((now - m.delay) / RecorderInterval); skip > avail {
		if avail < 0 {
			avail = 0
		}
		skip = avail
	}
	var out []Sample
	if n := int((now-m.delay)/RecorderInterval) - skip; n > 0 {
		out = make([]Sample, 0, n) // capacity hint only; the loop is authoritative
	}
	for b := skip; ; b++ {
		start := sim.Time(b) * RecorderInterval
		end := start + RecorderInterval
		if end+m.delay > now {
			break
		}
		watts := series.RatePerSecond(b) + m.IdleW()
		if m.rec.Profile().MeterNoiseSD > 0 { // σ=0 selects an ideal meter
			watts *= driftFactor(m.seed, chipDriftAmp, chipDriftPeriod, start)
			watts += bucketNoise(m.seed, b, m.rec.Profile().MeterNoiseSD)
		}
		out = append(out, Sample{Start: start, Arrival: end + m.delay, Watts: watts})
	}
	return out
}

// WattsupMeter models the external wall meter: whole-machine power averaged
// over one-second windows, delivered ≈1.2 s late through its USB link
// (§3.2 measured ≈1.2 s for the Wattsup).
type WattsupMeter struct {
	rec   *Recorder
	delay sim.Time
	seed  uint64
}

// NewWattsupMeter returns the wall meter for the recorder's machine.
func NewWattsupMeter(rec *Recorder, seed uint64) *WattsupMeter {
	return &WattsupMeter{rec: rec, delay: 1200 * sim.Millisecond, seed: seed}
}

// Name implements Meter.
func (m *WattsupMeter) Name() string { return "wattsup" }

// Interval implements Meter.
func (m *WattsupMeter) Interval() sim.Time { return sim.Second }

// Delay implements Meter.
func (m *WattsupMeter) Delay() sim.Time { return m.delay }

// Scope implements Meter.
func (m *WattsupMeter) Scope() Scope { return ScopeMachine }

// IdleW implements Meter.
func (m *WattsupMeter) IdleW() float64 { return m.rec.Profile().MachineIdleW }

// Read implements Meter.
func (m *WattsupMeter) Read(now sim.Time) []Sample {
	return m.ReadSince(now, 0)
}

// ReadSince implements SinceReader; see ChipMeter.ReadSince.
func (m *WattsupMeter) ReadSince(now sim.Time, skip int) []Sample {
	m.rec.FlushUntil(now)
	pkg := m.rec.PkgActiveSeries()
	dev := m.rec.DeviceSeries()
	perWindow := int(sim.Second / RecorderInterval)
	// Same clamp as ChipMeter.ReadSince: window w is delivered iff
	// (w+1)·second + delay ≤ now, so skip is bounded by the delivered
	// count before the scan loop can overflow on sim.Time(w)*sim.Second.
	if skip < 0 {
		skip = 0
	}
	if avail := int((now - m.delay) / sim.Second); skip > avail {
		if avail < 0 {
			avail = 0
		}
		skip = avail
	}
	var out []Sample
	if n := int((now-m.delay)/sim.Second) - skip; n > 0 {
		out = make([]Sample, 0, n) // capacity hint only; the loop is authoritative
	}
	for w := skip; ; w++ {
		start := sim.Time(w) * sim.Second
		end := start + sim.Second
		if end+m.delay > now {
			break
		}
		var joules float64
		for b := w * perWindow; b < (w+1)*perWindow; b++ {
			joules += pkg.Bucket(b) + dev.Bucket(b)
		}
		// The window is exactly one second, so joules == mean watts.
		watts := joules + m.IdleW()
		if m.rec.Profile().MeterNoiseSD > 0 { // σ=0 selects an ideal meter
			watts *= driftFactor(m.seed, wattsupDriftAmp, wattsupDriftPeriod, start)
			watts += bucketNoise(m.seed, w, m.rec.Profile().MeterNoiseSD*2)
		}
		out = append(out, Sample{Start: start, Arrival: end + m.delay, Watts: watts})
	}
	return out
}
