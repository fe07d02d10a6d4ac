package model

import (
	"fmt"
	"math"

	"powercontainers/internal/linalg"
)

// CalSample is one calibration observation: system-wide mean metrics over a
// steady-state window paired with the measured mean active power over the
// same window. PkgActiveW is NaN on machines without an on-chip meter.
type CalSample struct {
	M Metrics
	// MachineActiveW is the wall-meter reading minus machine idle.
	MachineActiveW float64
	// PkgActiveW is the on-chip meter reading minus package idle
	// (math.NaN() when the machine has no on-chip meter).
	PkgActiveW float64
	// Weight is the regression weight (1 if zero).
	Weight float64
}

// FitScope selects the regression target and feature set.
type FitScope int

const (
	// ScopeMachine fits all eight coefficients against machine active
	// power (offline calibration, and online recalibration on machines
	// with only a wall meter).
	ScopeMachine FitScope = iota
	// ScopePackage fits the six CPU coefficients against package active
	// power (online recalibration against the on-chip meter); device
	// coefficients are carried over unchanged.
	ScopePackage
)

// FitOptions configures a model fit.
type FitOptions struct {
	Scope FitScope
	// IncludeChipShare selects Eq. 2 (true) or Eq. 1 (false). Without
	// it, the shared maintenance power has no column to land in and
	// smears into the utilization coefficient — the Approach #1 error
	// source Figure 8 quantifies.
	IncludeChipShare bool
	// IdleW is recorded into the result for reporting (§4.1's Cidle).
	IdleW float64
	// Base supplies coefficients for terms outside the fitted scope
	// (package-scope fits keep Base's disk/net terms).
	Base Coefficients
}

// plan returns the feature layout the options select.
func (o FitOptions) plan() FitPlan {
	return FitPlan{Scope: o.Scope, IncludeChipShare: o.IncludeChipShare}
}

// FitPlan is the feature layout of a fit configuration: which regression
// columns a calibration sample contributes and which measurement it targets.
// Column layout: core, ins, float, cache, mem, [chip], [disk, net]. Two fits
// with equal plans accumulate structurally identical normal equations, which
// is what lets a Window maintain one Gram across refits.
type FitPlan struct {
	Scope            FitScope
	IncludeChipShare bool
}

// K returns the number of regression columns under the plan.
func (p FitPlan) K() int {
	k := 5
	if p.IncludeChipShare {
		k++
	}
	if p.Scope == ScopeMachine {
		k += 2
	}
	return k
}

// rowInto appends the sample's regression row to dst and returns it with the
// regression target and weight. dst lets callers reuse a stack scratch
// buffer on the per-sample hot path.
func (p FitPlan) rowInto(dst []float64, s CalSample) (row []float64, target, weight float64, err error) {
	row = append(dst, s.M.Core, s.M.Ins, s.M.Float, s.M.Cache, s.M.Mem)
	if p.IncludeChipShare {
		row = append(row, s.M.Chip)
	}
	switch p.Scope {
	case ScopeMachine:
		row = append(row, s.M.Disk, s.M.Net)
		target = s.MachineActiveW
	case ScopePackage:
		target = s.PkgActiveW
		if math.IsNaN(target) {
			return nil, 0, 0, fmt.Errorf("model: package-scope fit with sample lacking package measurement")
		}
	default:
		return nil, 0, 0, fmt.Errorf("model: unknown fit scope %d", p.Scope)
	}
	weight = s.Weight
	//pclint:allow floatsafe exact zero is the documented unset sentinel of CalSample.Weight
	if weight == 0 {
		weight = 1
	}
	return row, target, weight, nil
}

// Fold accumulates one sample into a Gram built for this plan.
func (p FitPlan) Fold(g *linalg.Gram, s CalSample) error {
	var scratch [8]float64
	row, target, weight, err := p.rowInto(scratch[:0], s)
	if err != nil {
		return err
	}
	g.Add(row, target, weight)
	return nil
}

// Unfold removes one previously folded sample from a Gram (the eviction
// path of Window).
func (p FitPlan) Unfold(g *linalg.Gram, s CalSample) error {
	var scratch [8]float64
	row, target, weight, err := p.rowInto(scratch[:0], s)
	if err != nil {
		return err
	}
	return g.Remove(row, target, weight)
}

// FitGram accumulates the samples' normal equations under the plan without
// solving. Folding happens in sample order, so the result is bit-identical
// to the accumulation a direct Fit over the same samples performs.
func FitGram(samples []CalSample, plan FitPlan) (*linalg.Gram, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("model: no calibration samples")
	}
	return foldAll(plan, samples)
}

// foldAll accumulates samples under a plan, in order, into a fresh Gram.
func foldAll(p FitPlan, samples []CalSample) (*linalg.Gram, error) {
	g := linalg.NewGram(p.K())
	for _, s := range samples {
		if err := p.Fold(g, s); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// FitFromGram solves prebuilt normal equations and assembles coefficients
// exactly as Fit does — the entry point for callers that maintain a Gram
// incrementally (online recalibration) or share one accumulation across
// nested feature layouts (offline calibration's Eq. 1/Eq. 2).
func FitFromGram(g *linalg.Gram, opts FitOptions) (Coefficients, error) {
	plan := opts.plan()
	if g.K() != plan.K() {
		return Coefficients{}, fmt.Errorf("model: gram has %d features, plan wants %d", g.K(), plan.K())
	}
	beta, err := g.Solve()
	if err != nil {
		return Coefficients{}, fmt.Errorf("model: fit failed: %w", err)
	}
	c := opts.Base
	c.IdleW = opts.IdleW
	c.IncludesChipShare = opts.IncludeChipShare
	c.Core, c.Ins, c.Float, c.Cache, c.Mem = beta[0], beta[1], beta[2], beta[3], beta[4]
	i := 5
	if opts.IncludeChipShare {
		c.Chip = beta[i]
		i++
	} else {
		c.Chip = 0
	}
	if opts.Scope == ScopeMachine {
		c.Disk, c.Net = beta[i], beta[i+1]
	}
	return c, nil
}

// Fit calibrates model coefficients from samples by weighted least squares,
// the procedure the paper uses both offline (§4.1) and online (§3.2, where
// offline and online samples are weighed equally).
func Fit(samples []CalSample, opts FitOptions) (Coefficients, error) {
	g, err := FitGram(samples, opts.plan())
	if err != nil {
		return Coefficients{}, err
	}
	return FitFromGram(g, opts)
}

// FitError returns the mean absolute relative error of the model over the
// samples, in the fitted scope; calibration reports it as a sanity check.
func FitError(c Coefficients, samples []CalSample, scope FitScope) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, s := range samples {
		var est, meas float64
		if scope == ScopeMachine {
			est, meas = c.Estimate(s.M), s.MachineActiveW
		} else {
			est, meas = c.EstimateCPU(s.M), s.PkgActiveW
		}
		if meas <= 0 || math.IsNaN(meas) {
			continue
		}
		sum += math.Abs(est-meas) / meas
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
