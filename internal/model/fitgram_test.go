package model

import (
	"testing"

	"powercontainers/internal/linalg"
	"powercontainers/internal/sim"
)

func gramTestSamples(n int) []CalSample {
	truth := Coefficients{Core: 9, Ins: 1.5, Float: 0.8, Cache: 120, Mem: 300, Chip: 5, Disk: 2, Net: 6}
	rng := sim.NewRand(123)
	samples := make([]CalSample, 0, n)
	for i := 0; i < n; i++ {
		m := Metrics{
			Core: rng.Float64() * 4, Ins: rng.Float64() * 6, Float: rng.Float64(),
			Cache: rng.Float64() * 0.08, Mem: rng.Float64() * 0.02,
			Chip: rng.Float64(), Disk: rng.Float64(), Net: rng.Float64(),
		}
		samples = append(samples, CalSample{
			M:              m,
			MachineActiveW: truth.Estimate(m) + rng.NormFloat64(0.1),
			PkgActiveW:     truth.EstimateCPU(m) + rng.NormFloat64(0.1),
			Weight:         1 + rng.Float64(),
		})
	}
	return samples
}

// TestFitFromGramMatchesFit pins the refactor: a fit through an explicitly
// accumulated Gram must equal the one-call Fit bit-for-bit, for every
// scope/chip-share plan.
func TestFitFromGramMatchesFit(t *testing.T) {
	samples := gramTestSamples(50)
	base := Coefficients{Disk: 2.5, Net: 7.5}
	for _, opts := range []FitOptions{
		{Scope: ScopeMachine, IncludeChipShare: false, IdleW: 30},
		{Scope: ScopeMachine, IncludeChipShare: true, IdleW: 30},
		{Scope: ScopePackage, IncludeChipShare: false, Base: base},
		{Scope: ScopePackage, IncludeChipShare: true, Base: base},
	} {
		want, err := Fit(samples, opts)
		if err != nil {
			t.Fatalf("%+v: Fit: %v", opts, err)
		}
		g, err := FitGram(samples, FitPlan{Scope: opts.Scope, IncludeChipShare: opts.IncludeChipShare})
		if err != nil {
			t.Fatalf("%+v: FitGram: %v", opts, err)
		}
		got, err := FitFromGram(g, opts)
		if err != nil {
			t.Fatalf("%+v: FitFromGram: %v", opts, err)
		}
		if got != want {
			t.Fatalf("scope=%v chip=%v: gram fit %+v differs from batch fit %+v",
				opts.Scope, opts.IncludeChipShare, got, want)
		}
	}
}

// TestFitGramSubsetMatchesEq1 pins the shared-accumulation trick offline
// calibration uses: projecting the Eq. 2 Gram onto the non-chip columns must
// reproduce a direct Eq. 1 fit bit-for-bit, because each retained
// accumulator entry saw the identical addition sequence.
func TestFitGramSubsetMatchesEq1(t *testing.T) {
	samples := gramTestSamples(50)
	eq2Plan := FitPlan{Scope: ScopeMachine, IncludeChipShare: true}
	g2, err := FitGram(samples, eq2Plan)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 2 machine layout: core, ins, float, cache, mem, chip, disk, net —
	// dropping column 5 leaves the Eq. 1 layout.
	g1 := g2.Subset([]int{0, 1, 2, 3, 4, 6, 7})
	got, err := FitFromGram(g1, FitOptions{Scope: ScopeMachine, IncludeChipShare: false, IdleW: 12})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fit(samples, FitOptions{Scope: ScopeMachine, IncludeChipShare: false, IdleW: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("subset Eq1 fit %+v differs from direct fit %+v", got, want)
	}
}

// TestFitPlanFoldUnfoldRoundTrip checks that Unfold removes exactly what
// Fold added: fold everything, unfold a prefix, and the solution must agree
// with a batch fit of the suffix to rounding-level tolerance.
func TestFitPlanFoldUnfoldRoundTrip(t *testing.T) {
	samples := gramTestSamples(40)
	plan := FitPlan{Scope: ScopeMachine, IncludeChipShare: true}
	g, err := FitGram(samples, plan)
	if err != nil {
		t.Fatal(err)
	}
	const drop = 15
	for i := range samples[:drop] {
		if err := plan.Unfold(g, &samples[i]); err != nil {
			t.Fatalf("Unfold: %v", err)
		}
	}
	if g.N() != len(samples)-drop {
		t.Fatalf("N = %d, want %d", g.N(), len(samples)-drop)
	}
	got, err := FitFromGram(g, FitOptions{Scope: ScopeMachine, IncludeChipShare: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fit(samples[drop:], FitOptions{Scope: ScopeMachine, IncludeChipShare: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"core": {got.Core, want.Core}, "ins": {got.Ins, want.Ins},
		"float": {got.Float, want.Float}, "cache": {got.Cache, want.Cache},
		"mem": {got.Mem, want.Mem}, "chip": {got.Chip, want.Chip},
		"disk": {got.Disk, want.Disk}, "net": {got.Net, want.Net},
	} {
		diff := pair[0] - pair[1]
		if diff < 0 {
			diff = -diff
		}
		scale := pair[1]
		if scale < 0 {
			scale = -scale
		}
		if diff > 1e-9*(1+scale) {
			t.Errorf("%s drifted past tolerance: %v vs %v", name, pair[0], pair[1])
		}
	}
}

// TestFitPlanErrors mirrors TestFitErrors for the Gram-based entry points.
func TestFitPlanErrors(t *testing.T) {
	if _, err := FitGram(nil, FitPlan{}); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := FitGram(gramTestSamples(3), FitPlan{Scope: FitScope(99)}); err == nil {
		t.Fatal("bad scope accepted")
	}
	g := linalg.NewGram(3)
	g.Add([]float64{1, 2, 3}, 1, 1)
	if _, err := FitFromGram(g, FitOptions{Scope: ScopeMachine}); err == nil {
		t.Fatal("feature-count mismatch accepted")
	}
}
