package experiments

import (
	"fmt"
	"math"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Fig10App identifies one of the two composition-change applications.
type Fig10App struct {
	Name string
	// Original and NewComposition deployments.
	Original workload.Workload
	NewComp  workload.Workload
	// NewMixLabels and weights describe the new composition's request-
	// type distribution, for assembling per-type energy profiles.
	NewMixLabels  []string
	NewMixWeights []float64
}

// Fig10Point is one (load level, approach) prediction.
type Fig10Point struct {
	App string
	// UtilTarget is the intended CPU utilization of the hypothetical
	// condition (the paper's "median (~50%)", "~65%", "~80%").
	UtilTarget float64
	RatePerSec float64
	// MeasuredW is the actual active power running the new composition.
	MeasuredW float64
	// Predicted powers under the three schemes.
	ContainersW float64
	CPUUtilW    float64
	RateW       float64
}

// Errors returns the three relative prediction errors.
func (p Fig10Point) Errors() (containers, cpuUtil, rate float64) {
	e := func(pred float64) float64 { return ValidationError(pred, p.MeasuredW) }
	return e(p.ContainersW), e(p.CPUUtilW), e(p.RateW)
}

// Fig10Result reproduces Figure 10: predicting system active power at new
// request compositions from per-request energy profiles, versus the
// request-rate-proportional and CPU-utilization-proportional alternatives.
type Fig10Result struct {
	Points []Fig10Point
	// Worst errors per approach across all points.
	WorstContainers, WorstCPUUtil, WorstRate float64
}

// typeProfile is the per-request-type energy/CPU profile learned from the
// original workload run.
type typeProfile struct {
	count     int
	energyJ   float64 // mean CPU energy per request, chip share excluded
	chipJ     float64 // mean chip-share energy per request
	deviceJ   float64
	cpuSec    float64
	totEnergy float64
}

// Fig10Ex runs Figure 10 with explicit execution configuration. The two
// applications are independent jobs (profiling feeds prediction within an
// app, so each app's pipeline stays sequential inside its job).
func Fig10Ex(ex Exec, seed uint64) (*Fig10Result, error) {
	top := 10
	topLabels := make([]string, top)
	topWeights := workload.ProblemWeights()[:top]
	for i := range topLabels {
		topLabels[i] = workload.ProblemLabel(i)
	}
	apps := []Fig10App{
		{
			Name:          "RSA-crypto",
			Original:      workload.RSA{},
			NewComp:       workload.RSA{OnlyLargestKey: true},
			NewMixLabels:  []string{"rsa/2048"},
			NewMixWeights: []float64{1},
		},
		{
			Name:          "WeBWorK",
			Original:      workload.WeBWorK{},
			NewComp:       workload.WeBWorK{TopProblems: top},
			NewMixLabels:  topLabels,
			NewMixWeights: topWeights,
		},
	}

	plan := &runner.Plan{}
	for ai, app := range apps {
		appSeed := seed + uint64(ai)*101
		plan.Add("fig10/"+app.Name, func() (any, error) {
			pts, err := fig10App(ex.Assembly, app, appSeed)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s: %w", app.Name, err)
			}
			return pts, nil
		})
	}
	perApp, err := runner.Collect[[]Fig10Point](plan, ex.Jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	for _, pts := range perApp {
		res.Points = append(res.Points, pts...)
	}
	for _, p := range res.Points {
		c, u, rr := p.Errors()
		res.WorstContainers = math.Max(res.WorstContainers, c)
		res.WorstCPUUtil = math.Max(res.WorstCPUUtil, u)
		res.WorstRate = math.Max(res.WorstRate, rr)
	}
	return res, nil
}

func fig10App(as Assembly, app Fig10App, seed uint64) ([]Fig10Point, error) {
	spec := cpu.SandyBridge

	// --- Profiling phase: run the ORIGINAL workload at median load. ---
	m, err := as.NewMachine(spec, core.ApproachRecalibrated, seed)
	if err != nil {
		return nil, err
	}
	rig := m.Deploy(app.Original)
	t0, t1 := 2*sim.Second, 62*sim.Second
	rig.DriveFrac(0.5, t1)
	m.Eng.RunUntil(t1 + 3*sim.Second)
	origMeasured, err := WattsupActiveMean(m, m.Eng.Now(), t0, t1)
	if err != nil {
		return nil, err
	}

	profiles := map[string]*typeProfile{}
	var overall typeProfile
	completedRate := 0.0
	for _, req := range rig.Gen.Completed() {
		if !req.Finished() || req.Done < t0 || req.Done >= t1 {
			continue
		}
		completedRate += 1
		tp := profiles[req.Type]
		if tp == nil {
			tp = &typeProfile{}
			profiles[req.Type] = tp
		}
		for _, dst := range []*typeProfile{tp, &overall} {
			dst.count++
			dst.energyJ += req.Cont.CPUEnergyJ - req.Cont.ChipEnergyJ
			dst.chipJ += req.Cont.ChipEnergyJ
			dst.deviceJ += req.Cont.DeviceEnergyJ
			dst.cpuSec += float64(req.Cont.CPUTime) / float64(sim.Second)
			dst.totEnergy += req.Cont.EnergyJ()
		}
	}
	windowSec := float64(t1-t0) / float64(sim.Second)
	completedRate /= windowSec
	if overall.count == 0 {
		return nil, fmt.Errorf("no profiled requests")
	}
	norm := func(tp *typeProfile) {
		n := float64(tp.count)
		tp.energyJ /= n
		tp.chipJ /= n
		tp.deviceJ /= n
		tp.cpuSec /= n
		tp.totEnergy /= n
	}
	norm(&overall)
	for _, lbl := range SortedKeys(profiles) {
		norm(profiles[lbl])
	}

	// Expected per-request profile under the new composition, weighting
	// per-type profiles by the new mix; types never profiled fall back to
	// the overall mean.
	var wsum float64
	mix := typeProfile{}
	for i, lbl := range app.NewMixLabels {
		w := app.NewMixWeights[i]
		tp := profiles[lbl]
		if tp == nil || tp.count == 0 {
			tp = &overall
		}
		wsum += w
		mix.energyJ += w * tp.energyJ
		mix.deviceJ += w * tp.deviceJ
		mix.cpuSec += w * tp.cpuSec
	}
	mix.energyJ /= wsum
	mix.deviceJ /= wsum
	mix.cpuSec /= wsum

	origUtil := completedRate * overall.cpuSec / float64(spec.Cores())
	chip := m.Fac.Coeff.Chip // maintenance coefficient known to the facility
	if err := m.FinalizeAudit(); err != nil {
		return nil, err
	}

	// --- Prediction/measurement phase at three hypothetical loads. ---
	var points []Fig10Point
	for pi, util := range []float64{0.50, 0.65, 0.80} {
		// The rate that would produce the target utilization given the
		// new mix's profiled per-request CPU demand.
		rate := util * float64(spec.Cores()) / mix.cpuSec

		// Power containers prediction: per-request core-level energy ×
		// rate, plus chip maintenance at the predicted concurrency.
		containersW := rate*(mix.energyJ+mix.deviceJ) + chip*float64(spec.Chips)
		// CPU-utilization-proportional.
		cpuUtilW := origMeasured * (rate * mix.cpuSec / float64(spec.Cores())) / origUtil
		// Request-rate-proportional.
		rateW := origMeasured * rate / completedRate

		// Measure the new composition at this rate.
		m2, err := as.NewMachine(spec, core.ApproachChipShare, seed+100+uint64(pi))
		if err != nil {
			return nil, err
		}
		mt0, mt1 := 2*sim.Second, 27*sim.Second
		m2.Deploy(app.NewComp).DriveRate(rate, mt1)
		m2.Eng.RunUntil(mt1 + 3*sim.Second)
		measured, err := WattsupActiveMean(m2, m2.Eng.Now(), mt0, mt1)
		if err != nil {
			return nil, err
		}
		if err := m2.FinalizeAudit(); err != nil {
			return nil, err
		}
		points = append(points, Fig10Point{
			App: app.Name, UtilTarget: util, RatePerSec: rate,
			MeasuredW: measured, ContainersW: containersW,
			CPUUtilW: cpuUtilW, RateW: rateW,
		})
	}
	return points, nil
}

// Render prints predictions vs measurements.
func (r *Fig10Result) Render() string {
	t := &Table{
		Title: "Figure 10: power prediction at new request compositions (SandyBridge)",
		Header: []string{"app", "target util", "rate", "measured",
			"containers", "cpu-util-prop", "rate-prop"},
		Caption: fmt.Sprintf("worst errors: containers %s, cpu-util-proportional %s, rate-proportional %s\n"+
			"(paper: up to 11%%, 19%% and 56%% respectively)",
			pct(r.WorstContainers), pct(r.WorstCPUUtil), pct(r.WorstRate)),
	}
	for _, p := range r.Points {
		c, u, rr := p.Errors()
		t.AddRow(p.App, pct(p.UtilTarget), fmt.Sprintf("%.1f/s", p.RatePerSec), w1(p.MeasuredW),
			fmt.Sprintf("%s (%s)", w1(p.ContainersW), pct(c)),
			fmt.Sprintf("%s (%s)", w1(p.CPUUtilW), pct(u)),
			fmt.Sprintf("%s (%s)", w1(p.RateW), pct(rr)))
	}
	return t.String()
}
