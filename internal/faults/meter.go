package faults

import (
	"fmt"

	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// FaultyMeter decorates a power.Meter with the plan's meter faults. Every
// per-sample decision is a pure function of (plan seed, absolute base
// sample index), so two FaultyMeters over the same base stream deliver
// identical faulted streams regardless of polling cadence — the property
// the SinceReader contract (ReadSince(now, skip) ≡ Read(now)[skip:])
// depends on.
//
// Delivered samples are kept in an append-only log; jittered samples sit in
// a pending queue until their effective arrival passes. Effective arrivals
// are forced monotone (a jittered sample delays everything behind it, like
// a stalled serial link), which keeps the delivered log in arrival order.
type FaultyMeter struct {
	plan *Plan
	base power.Meter
	cfg  MeterFaults

	faultSeed  uint64 // partitioned dropout/spike/stuck draw
	jitterSeed uint64 // jitter gate draw
	lagSeed    uint64 // jitter magnitude draw

	baseSeen  int // base samples consumed (absolute index of the next one)
	lastWatts float64
	haveLast  bool
	lastArr   sim.Time // running max of effective arrivals
	dead      bool

	pending   []power.Sample // faulted, waiting for effective arrival
	delivered []power.Sample // append-only delivered log
}

var _ power.Meter = (*FaultyMeter)(nil)
var _ power.SinceReader = (*FaultyMeter)(nil)

func newFaultyMeter(p *Plan, base power.Meter) *FaultyMeter {
	cfg := *p.Meter
	if cfg.SpikeMag == 0 {
		cfg.SpikeMag = 8
	}
	site := "meter/" + base.Name()
	return &FaultyMeter{
		plan:       p,
		base:       base,
		cfg:        cfg,
		faultSeed:  p.siteSeed(site + "/fault"),
		jitterSeed: p.siteSeed(site + "/jitter"),
		lagSeed:    p.siteSeed(site + "/lag"),
	}
}

// Name implements power.Meter.
func (m *FaultyMeter) Name() string { return m.base.Name() }

// Interval implements power.Meter.
func (m *FaultyMeter) Interval() sim.Time { return m.base.Interval() }

// Delay implements power.Meter.
func (m *FaultyMeter) Delay() sim.Time { return m.base.Delay() }

// Scope implements power.Meter.
func (m *FaultyMeter) Scope() power.Scope { return m.base.Scope() }

// IdleW implements power.Meter.
func (m *FaultyMeter) IdleW() float64 { return m.base.IdleW() }

// Read implements power.Meter.
func (m *FaultyMeter) Read(now sim.Time) []power.Sample {
	return m.ReadSince(now, 0)
}

// ReadSince implements power.SinceReader. skip is clamped to
// [0, len(delivered)] — a cursor that outran the faulted history (samples
// the decorator dropped) yields an empty tail, not a panic.
func (m *FaultyMeter) ReadSince(now sim.Time, skip int) []power.Sample {
	m.advance(now)
	if skip < 0 {
		skip = 0
	}
	if skip > len(m.delivered) {
		skip = len(m.delivered)
	}
	return m.delivered[skip:]
}

// advance consumes newly available base samples, applies faults, and
// releases pending samples whose effective arrival has passed.
func (m *FaultyMeter) advance(now sim.Time) {
	var fresh []power.Sample
	if sr, ok := m.base.(power.SinceReader); ok {
		fresh = sr.ReadSince(now, m.baseSeen)
	} else {
		all := m.base.Read(now)
		if m.baseSeen < len(all) {
			fresh = all[m.baseSeen:]
		}
	}
	for _, s := range fresh {
		m.ingest(s, uint64(m.baseSeen))
		m.baseSeen++
	}
	// Release the pending prefix that has arrived. Pending is in
	// effective-arrival order by construction (monotone arrivals).
	n := 0
	for n < len(m.pending) && m.pending[n].Arrival <= now {
		n++
	}
	if n > 0 {
		m.delivered = append(m.delivered, m.pending[:n]...)
		m.pending = append(m.pending[:0], m.pending[n:]...)
	}
}

// ingest applies the per-sample fault decisions to base sample i.
func (m *FaultyMeter) ingest(s power.Sample, i uint64) {
	if m.dead {
		return
	}
	site := "meter/" + m.base.Name()
	u := unit(m.faultSeed, i)
	switch {
	case u < m.cfg.DropoutP:
		m.plan.emit(s.Arrival, site, "dropout", "")
		return
	case u < m.cfg.DropoutP+m.cfg.SpikeP:
		m.plan.emit(s.Arrival, site, "spike", fmt.Sprintf("x%g", m.cfg.SpikeMag))
		s.Watts *= m.cfg.SpikeMag
	case u < m.cfg.DropoutP+m.cfg.SpikeP+m.cfg.StuckP:
		if m.haveLast {
			m.plan.emit(s.Arrival, site, "stuck", "")
			s.Watts = m.lastWatts
		}
	}
	m.lastWatts = s.Watts
	m.haveLast = true

	if m.cfg.JitterP > 0 && m.cfg.JitterMax > 0 && unit(m.jitterSeed, i) < m.cfg.JitterP {
		extra := sim.Time(unit(m.lagSeed, i) * float64(m.cfg.JitterMax))
		if extra > 0 {
			m.plan.emit(s.Arrival, site, "jitter", sim.FormatTime(extra))
			s.Arrival += extra
		}
	}
	if s.Arrival < m.lastArr {
		s.Arrival = m.lastArr // a delayed sample delays everything behind it
	}
	m.lastArr = s.Arrival

	if m.cfg.DeathAt > 0 && s.Arrival > m.cfg.DeathAt {
		if !m.dead {
			m.dead = true
			m.plan.emit(m.cfg.DeathAt, site, "death", "")
		}
		return
	}
	m.pending = append(m.pending, s)
}
