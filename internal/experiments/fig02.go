package experiments

import (
	"fmt"

	"powercontainers/internal/align"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Fig2Result reproduces Figure 2: measurement/model alignment
// cross-correlation over hypothetical measurement delays, for the
// SandyBridge on-chip power meter (peak expected near 1 ms) and the Wattsup
// wall meter (peak expected near 1.2 s), plus Figure 3's aligned traces.
type Fig2Result struct {
	// ChipCurve and WattsupCurve are the correlation curves.
	ChipCurve    []align.LagPoint
	WattsupCurve []align.LagPoint
	// ChipPeak and WattsupPeak are the estimated delays.
	ChipPeak    sim.Time
	WattsupPeak sim.Time
	// TrueChipDelay and TrueWattsupDelay are the simulator's actual
	// delivery delays, for verification.
	TrueChipDelay    sim.Time
	TrueWattsupDelay sim.Time

	// Fig. 3 companion: aligned measured/modeled package power traces
	// over a short span, at 1 ms resolution.
	TraceStart    sim.Time
	TraceMeasured []float64
	TraceModeled  []float64
}

// Fig2 runs a fluctuating workload (GAE-Vosao at half load, whose request
// mix and background bursts produce strong power phases) and computes the
// alignment curves.
func Fig2(ex Exec, seed uint64) (*Fig2Result, error) {
	m, err := ex.NewMachine(cpu.SandyBridge, core.ApproachChipShare, seed)
	if err != nil {
		return nil, err
	}
	const runFor = 24 * sim.Second
	m.Deploy(workload.GAE{}).DriveFrac(0.5, runFor)
	m.Eng.RunUntil(runFor + 3*sim.Second)

	ms := m.Fac.Metrics()
	modelPower := ms.ModeledPower(m.Fac.Coeff, ms.Len())

	chipSamples := m.Chip.Read(m.Eng.Now())
	wattsupSamples := m.Wattsup.Read(m.Eng.Now())

	res := &Fig2Result{
		TrueChipDelay:    m.Chip.Delay(),
		TrueWattsupDelay: m.Wattsup.Delay(),
	}
	res.ChipCurve = align.CorrelationCurve(chipSamples, m.Chip.IdleW(), m.Chip.Interval(),
		modelPower, ms.Interval(), sim.Millisecond, -100*sim.Millisecond, 100*sim.Millisecond)
	res.WattsupCurve = align.CorrelationCurve(wattsupSamples, m.Wattsup.IdleW(), m.Wattsup.Interval(),
		modelPower, ms.Interval(), 5*sim.Millisecond, 0, 2000*sim.Millisecond)

	if res.ChipPeak, err = align.EstimateDelay(res.ChipCurve); err != nil {
		return nil, fmt.Errorf("chip meter alignment: %w", err)
	}
	if res.WattsupPeak, err = align.EstimateDelay(res.WattsupCurve); err != nil {
		return nil, fmt.Errorf("wattsup alignment: %w", err)
	}

	// Figure 3: overlay measured package power (shifted by the estimated
	// delay) with the model estimate over 600 ms of steady execution.
	res.TraceStart = 10 * sim.Second
	start := res.TraceStart
	nBuckets := int(600 * sim.Millisecond / ms.Interval())
	res.TraceModeled = make([]float64, nBuckets)
	for b := 0; b < nBuckets; b++ {
		res.TraceModeled[b] = modelPower[int(start/ms.Interval())+b] + m.Chip.IdleW()
	}
	res.TraceMeasured = make([]float64, nBuckets)
	idx := map[sim.Time]power.Sample{}
	for _, s := range chipSamples {
		idx[s.Arrival] = s
	}
	for b := 0; b < nBuckets; b++ {
		windowStart := start + sim.Time(b)*ms.Interval()
		arrival := windowStart + m.Chip.Interval() + res.ChipPeak
		if s, ok := idx[arrival]; ok {
			res.TraceMeasured[b] = s.Watts
		}
	}
	if err := m.FinalizeAudit(); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the correlation peaks and a down-sampled curve.
func (r *Fig2Result) Render() string {
	t := &Table{
		Title:  "Figure 2: measurement/model alignment cross-correlation",
		Header: []string{"meter", "estimated delay", "true delay", "curve points"},
		Caption: "The correlation peak over hypothetical measurement delays identifies each\n" +
			"meter's delivery lag (Eq. 4): ~1 ms for the on-chip meter, ~1.2 s for the\n" +
			"Wattsup (coarse windows plus USB propagation).",
	}
	t.AddRow("SandyBridge on-chip", sim.FormatTime(r.ChipPeak), sim.FormatTime(r.TrueChipDelay), fmt.Sprintf("%d", len(r.ChipCurve)))
	t.AddRow("Wattsup", sim.FormatTime(r.WattsupPeak), sim.FormatTime(r.TrueWattsupDelay), fmt.Sprintf("%d", len(r.WattsupCurve)))
	out := t.String()

	t2 := &Table{
		Title:  "Figure 3: aligned measurement/model power traces (chip meter, 600 ms)",
		Header: []string{"offset", "measured", "modeled"},
	}
	for b := 0; b < len(r.TraceMeasured); b += 50 {
		t2.AddRow(sim.FormatTime(sim.Time(b)*sim.Millisecond), w1(r.TraceMeasured[b]), w1(r.TraceModeled[b]))
	}
	return out + "\n" + t2.String()
}
