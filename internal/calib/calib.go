// Package calib performs the paper's offline model calibration (§4.1): it
// runs each calibration microbenchmark at several load levels on a freshly
// simulated machine, pairs steady-state system metrics with measured active
// power, and least-square-fits the model coefficients — once without the
// chip-share term (Eq. 1, the paper's Approach #1) and once with it
// (Eq. 2, Approach #2).
//
// Offline calibration is a controlled experiment, so it may use the true
// window timestamps of meter samples; only *online* recalibration is
// restricted to arrival times plus an estimated delay.
package calib

import (
	"fmt"
	"math"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/runner"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Config tunes a calibration run.
type Config struct {
	// Seed drives all randomness (meter noise streams).
	Seed uint64
	// WarmupSec and WindowSec bound the measured steady-state window of
	// each configuration.
	WarmupSec float64
	WindowSec float64
}

// DefaultConfig returns the standard calibration setup.
func DefaultConfig() Config {
	return Config{Seed: 1, WarmupSec: 1.0, WindowSec: 2.0}
}

// Result is a machine's offline calibration output.
type Result struct {
	Spec cpu.MachineSpec
	// Eq1 is the Approach #1 model (no chip-share column); Eq2 the
	// Approach #2 model.
	Eq1, Eq2 model.Coefficients
	// Samples are the calibration observations (reused as the offline
	// half of online recalibration).
	Samples []model.CalSample
	// Mmax is the maximum observed value of each system-wide metric,
	// for the C·Mmax table of §4.1.
	Mmax model.Metrics
	// IdleW is the machine idle power (Cidle).
	IdleW float64
	// FitErrEq1 and FitErrEq2 are mean absolute relative fit errors over
	// the calibration samples.
	FitErrEq1, FitErrEq2 float64
}

// HasChipMeter reports whether the machine model carries an on-chip power
// meter: in the paper's testbed, only SandyBridge does.
func HasChipMeter(spec cpu.MachineSpec) bool { return spec.Name == "SandyBridge" }

// Calibrate runs the full §4.1 procedure for a machine.
func Calibrate(spec cpu.MachineSpec, cfg Config) (*Result, error) {
	profile, err := power.Profiles(spec)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, IdleW: profile.MachineIdleW}

	// The configurations share nothing: each builds its own engine,
	// kernel, facility and meters, salted by its (benchmark, load) index.
	// They run as one runner plan at the process-default worker bound, and
	// the samples fold in plan order, so the result is bit-identical at
	// any bound. A job reports its failure in its cell, keeping the
	// calib-prefixed error text; the first failure in plan order wins,
	// as in a serial sweep.
	type cell struct {
		s   model.CalSample
		err error
	}
	var plan runner.Plan
	for bi, mb := range workload.MicroBenches() {
		for li, load := range workload.CalibrationLoadLevels {
			key := fmt.Sprintf("%s@%.0f%%", mb.Name, load*100)
			salt := uint64(bi*10 + li)
			plan.Add(key, func() (any, error) {
				s, err := runConfig(spec, profile, mb, load, cfg, salt)
				if err != nil {
					err = fmt.Errorf("calib: %s: %w", key, err)
				}
				return cell{s, err}, nil
			})
		}
	}
	cells, err := runner.Collect[cell](&plan, 0)
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if c.err != nil {
			return nil, c.err
		}
		res.Samples = append(res.Samples, c.s)
		res.Mmax = res.Mmax.Max(c.s.M)
	}

	// One pass over the samples serves both fits: Eq. 1's normal equations
	// are the Eq. 2 Gram with the chip-share column projected out (machine
	// layout: core, ins, float, cache, mem, chip, disk, net — drop column
	// 5), bit-identical to a direct Eq. 1 accumulation.
	eq2Gram, err := model.FitGram(res.Samples, model.FitPlan{
		Scope: model.ScopeMachine, IncludeChipShare: true,
	})
	if err != nil {
		return nil, fmt.Errorf("calib: Eq2 fit: %w", err)
	}
	res.Eq1, err = model.FitFromGram(eq2Gram.Subset([]int{0, 1, 2, 3, 4, 6, 7}), model.FitOptions{
		Scope: model.ScopeMachine, IncludeChipShare: false, IdleW: profile.MachineIdleW,
	})
	if err != nil {
		return nil, fmt.Errorf("calib: Eq1 fit: %w", err)
	}
	res.Eq2, err = model.FitFromGram(eq2Gram, model.FitOptions{
		Scope: model.ScopeMachine, IncludeChipShare: true, IdleW: profile.MachineIdleW,
	})
	if err != nil {
		return nil, fmt.Errorf("calib: Eq2 fit: %w", err)
	}
	res.FitErrEq1 = model.FitError(res.Eq1, res.Samples, model.ScopeMachine)
	res.FitErrEq2 = model.FitError(res.Eq2, res.Samples, model.ScopeMachine)
	return res, nil
}

// runConfig measures one (microbenchmark, load level) configuration on a
// fresh machine and returns its calibration sample.
func runConfig(spec cpu.MachineSpec, profile power.TrueProfile, mb workload.MicroBench,
	load float64, cfg Config, salt uint64) (model.CalSample, error) {

	eng := sim.NewEngine()
	k, err := kernel.New("calib", spec, profile, eng, nil)
	if err != nil {
		return model.CalSample{}, err
	}
	fac := core.Attach(k, model.Coefficients{}, core.Config{Approach: core.ApproachChipShare})
	wattsup := power.NewWattsupMeter(k.Rec, cfg.Seed*1000+salt)
	chip := power.NewChipMeter(k.Rec, cfg.Seed*2000+salt)

	mb.SpawnLoop(k, spec.Cores(), load)

	warm := sim.Time(cfg.WarmupSec * float64(sim.Second))
	end := warm + sim.Time(cfg.WindowSec*float64(sim.Second))
	// Run past the end so the delayed Wattsup samples for the window are
	// all delivered.
	eng.RunUntil(end + 2*sim.Second)

	ms := fac.Metrics()
	lo := int(warm / ms.Interval())
	hi := int(end / ms.Interval())
	s := model.CalSample{M: ms.WindowMean(lo, hi), Weight: 1}

	s.MachineActiveW, err = power.ActiveMean(wattsup, eng.Now(), warm, end)
	if err != nil {
		return s, err
	}
	if HasChipMeter(spec) {
		s.PkgActiveW, err = power.ActiveMean(chip, eng.Now(), warm, end)
		if err != nil {
			return s, err
		}
	} else {
		s.PkgActiveW = math.NaN()
	}
	return s, nil
}
