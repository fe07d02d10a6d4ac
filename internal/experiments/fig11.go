package experiments

import (
	"fmt"
	"math"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
	"powercontainers/internal/workload"
)

// Fig11Result reproduces Figures 11 and 12: fair request power conditioning
// of a Google App Engine workload with injected power viruses. Run (A) is
// the original system; run (B) applies container-based conditioning with a
// system active power target, throttling only the requests that exceed
// their share.
type Fig11Result struct {
	// TargetActiveW is the conditioning target (package active watts).
	TargetActiveW float64
	// VirusStart is when viruses begin arriving.
	VirusStart sim.Time
	// OriginalTrace and ConditionedTrace are package full power (W) per
	// 100 ms bucket over the run.
	OriginalTrace    []float64
	ConditionedTrace []float64
	// PeakOriginalW / PeakConditionedW are the peak package active power
	// after virus introduction.
	PeakOriginalW    float64
	PeakConditionedW float64

	// Figure 12 companion: per-request scatter from the conditioned run.
	Scatter []Fig12Point
	// Mean slowdown (1 − mean duty fraction) for normal requests and for
	// viruses.
	NormalSlowdown float64
	VirusSlowdown  float64
}

// Fig12Point is one request of the Figure 12 scatter.
type Fig12Point struct {
	Type string
	// OriginalPowerW estimates the unthrottled request power; DutyRatio
	// is the time-averaged duty-cycle ratio applied to it.
	OriginalPowerW float64
	DutyRatio      float64
}

// Fig11 runs both systems on SandyBridge.
func Fig11(ex Exec, seed uint64) (*Fig11Result, error) {
	const (
		runFor     = 20 * sim.Second
		virusStart = 10 * sim.Second
		virusRate  = 1.0 // sporadic, ~one per second (§4.3)
	)

	run := func(condition bool, targetW float64) (*Machine, *server.LoadGen, error) {
		m, err := ex.NewMachine(cpu.SandyBridge, core.ApproachRecalibrated, seed)
		if err != nil {
			return nil, nil, err
		}
		if condition {
			m.Fac.EnableConditioning(targetW)
		}
		rig := m.Deploy(workload.GAE{})
		rig.Drive(PeakLoad, runFor)

		vdep := workload.GAE{VirusLoadFraction: 1, DisableBackground: true}.Deploy(m.K, m.Rng.Fork(12))
		vgen := server.NewLoadGen(m.K, m.Fac, vdep)
		vrng := m.Rng.Fork(14)
		m.Eng.At(virusStart, func() {
			vgen.RunOpenLoop(virusRate, runFor, vrng)
		})
		m.Eng.RunUntil(runFor + 2*sim.Second)
		// Merge virus requests into the main generator's view for the
		// scatter.
		for _, r := range vgen.Completed() {
			rig.Gen.InjectedExternally(r)
		}
		return m, rig.Gen, nil
	}

	// Run (A): original system; derive the conditioning target from its
	// pre-virus baseline, as the paper derives 40 W from the Vosao load.
	mA, _, err := run(false, 0)
	if err != nil {
		return nil, err
	}
	baseline := mA.K.Rec.PkgActivePowerW(2*sim.Second, virusStart)
	target := baseline * 1.02

	mB, genB, err := run(true, target)
	if err != nil {
		return nil, err
	}

	res := &Fig11Result{
		TargetActiveW:    target,
		VirusStart:       virusStart,
		OriginalTrace:    packageTrace(mA, runFor),
		ConditionedTrace: packageTrace(mB, runFor),
	}
	res.PeakOriginalW = peakAfter(mA, virusStart, runFor)
	res.PeakConditionedW = peakAfter(mB, virusStart, runFor)

	var normal, virus stats.Summary
	for _, req := range genB.Completed() {
		if !req.Finished() || req.Done < virusStart || req.Cont == nil {
			continue
		}
		pt := Fig12Point{
			Type:           req.Type,
			OriginalPowerW: req.Cont.OriginalMeanPowerW(),
			DutyRatio:      req.Cont.MeanDutyFraction(),
		}
		res.Scatter = append(res.Scatter, pt)
		if req.Type == "gae/virus" {
			virus.Observe(1 - pt.DutyRatio)
		} else {
			normal.Observe(1 - pt.DutyRatio)
		}
	}
	res.NormalSlowdown = math.Max(0, normal.Mean())
	res.VirusSlowdown = math.Max(0, virus.Mean())
	// Finalizing flushes the recorder to the end of the run, so it waits
	// until the traces above have been read up to runFor.
	for _, m := range []*Machine{mA, mB} {
		if err := m.FinalizeAudit(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// packageTrace returns package full power per 100 ms bucket.
func packageTrace(m *Machine, until sim.Time) []float64 {
	m.K.Rec.FlushUntil(until)
	out := m.K.Rec.PkgActiveSeries().CoarseRates(100)
	idle := m.Chip.IdleW()
	for i := range out {
		out[i] += idle
	}
	return out
}

// peakAfter returns the peak 100 ms package active power in [from, to).
func peakAfter(m *Machine, from, to sim.Time) float64 {
	m.K.Rec.FlushUntil(to)
	rates := m.K.Rec.PkgActiveSeries().CoarseRates(100)
	lo := int(from / (100 * sim.Millisecond))
	hi := int(to / (100 * sim.Millisecond))
	peak := 0.0
	for b := lo; b < hi && b < len(rates); b++ {
		if w := rates[b]; w > peak {
			peak = w
		}
	}
	return peak
}

// Render prints the conditioning traces and the fairness summary.
func (r *Fig11Result) Render() string {
	t := &Table{
		Title:  "Figure 11: power-conditioned execution of GAE with power viruses (SandyBridge)",
		Header: []string{"time", "original (pkg W)", "conditioned (pkg W)"},
		Caption: fmt.Sprintf("viruses from t=%s; active power target %.1f W; peak active after viruses:\n"+
			"original %.1f W vs conditioned %.1f W",
			sim.FormatTime(r.VirusStart), r.TargetActiveW, r.PeakOriginalW, r.PeakConditionedW),
	}
	for b := 0; b < len(r.OriginalTrace) && b < len(r.ConditionedTrace); b += 5 {
		t.AddRow(sim.FormatTime(sim.Time(b)*100*sim.Millisecond),
			w1(r.OriginalTrace[b]), w1(r.ConditionedTrace[b]))
	}
	out := t.String()

	t2 := &Table{
		Title:  "Figure 12: original request power vs applied duty-cycle ratio",
		Header: []string{"request class", "count", "mean original power", "mean duty ratio", "mean slowdown"},
		Caption: fmt.Sprintf("normal requests slowed %.1f%% on average, power viruses %.1f%%\n"+
			"(paper: ~2%% and ~33%%; full-machine throttling would slow everything ~13%%)",
			100*r.NormalSlowdown, 100*r.VirusSlowdown),
	}
	type agg struct {
		n         int
		pow, duty float64
	}
	classes := map[string]*agg{}
	for _, p := range r.Scatter {
		cls := "normal"
		if p.Type == "gae/virus" {
			cls = "virus"
		}
		a := classes[cls]
		if a == nil {
			a = &agg{}
			classes[cls] = a
		}
		a.n++
		a.pow += p.OriginalPowerW
		a.duty += p.DutyRatio
	}
	for _, cls := range []string{"normal", "virus"} {
		a := classes[cls]
		if a == nil {
			continue
		}
		n := float64(a.n)
		t2.AddRow(cls, fmt.Sprintf("%d", a.n), w1(a.pow/n),
			fmt.Sprintf("%.2f", a.duty/n), pct(1-a.duty/n))
	}
	return out + "\n" + t2.String()
}
