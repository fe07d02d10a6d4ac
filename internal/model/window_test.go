package model

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"powercontainers/internal/sim"
)

// windowSample draws a calibration sample with every metric in [0.5, 1.5),
// so any window of at least two samples per column is far from singular
// and downdate residue stays at rounding level. nanPkg makes it lack a
// package reading, which package-scope plans cannot fold.
func windowSample(rng *sim.Rand, nanPkg bool) CalSample {
	u := func() float64 { return 0.5 + rng.Float64() }
	m := Metrics{Core: u(), Ins: u(), Float: u(), Cache: u(), Mem: u(), Chip: u(), Disk: u(), Net: u()}
	truth := Coefficients{Core: 9, Ins: 1.5, Float: 0.8, Cache: 4, Mem: 3, Chip: 5, Disk: 2, Net: 6, IncludesChipShare: true}
	s := CalSample{
		M:              m,
		MachineActiveW: truth.Estimate(m) + rng.NormFloat64(0.1),
		PkgActiveW:     truth.EstimateCPU(m) + rng.NormFloat64(0.1),
		Weight:         1 + rng.Float64(),
	}
	if nanPkg {
		s.PkgActiveW = math.NaN()
	}
	return s
}

// foldable reports whether plan p can fold s.
func foldable(p FitPlan, s CalSample) bool {
	return p.Scope == ScopeMachine || !math.IsNaN(s.PkgActiveW)
}

// checkWindowScript drives a Window through an op script and checks it
// after every op against a model of its contents and a batch Fit over base
// plus window. Each op byte's low two bits pick the op (0, 1: Add; 2: Trim;
// 3: SetPlan) and its high six bits the argument. The seed fixes the base
// block (empty to 23 samples; with seed%5 == 0 its first sample lacks a
// package reading, so package-scope plans must be refused), the rebuild
// cadence (1 to 8) and the sample values.
func checkWindowScript(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	rng := sim.NewRand(seed)
	base := make([]CalSample, int(seed%24))
	for i := range base {
		base[i] = windowSample(rng, i == 0 && seed%5 == 0)
	}
	every := int(seed/24%8) + 1
	w := NewWindow(base, every)

	var (
		live    []CalSample
		plan    FitPlan
		planSet bool
		exact   = true // no eviction since the last rebuild
		since   int    // evictions since the last rebuild
	)
	for i, op := range ops {
		arg := int(op >> 2)
		switch op % 4 {
		case 0, 1:
			s := windowSample(rng, arg%5 == 0)
			err := w.Add(s)
			kept := planSet && foldable(plan, s)
			if (err == nil) != kept {
				t.Fatalf("op %d: Add err = %v, want kept=%v", i, err, kept)
			}
			if kept {
				live = append(live, s)
			}
		case 2:
			max := arg % 12
			n := w.Trim(max)
			want := len(live) - max
			if want < 0 {
				want = 0
			}
			if n != want {
				t.Fatalf("op %d: Trim(%d) evicted %d, want %d", i, max, n, want)
			}
			live = live[want:]
			if since += want; since >= every {
				exact, since = true, 0
			} else if want > 0 {
				exact = false
			}
		case 3:
			p := FitPlan{Scope: FitScope(arg & 1), IncludeChipShare: arg&2 != 0}
			err := w.SetPlan(p)
			baseOK := true
			for _, s := range base {
				baseOK = baseOK && foldable(p, s)
			}
			if (err == nil) != baseOK {
				t.Fatalf("op %d: SetPlan(%+v) err = %v, want ok=%v", i, p, err, baseOK)
			}
			if baseOK && (!planSet || p != plan) {
				plan, planSet, exact, since = p, true, true, 0
				var kept []CalSample
				for _, s := range live {
					if foldable(p, s) {
						kept = append(kept, s)
					}
				}
				live = kept
			}
		}

		if w.Len() != len(live) {
			t.Fatalf("op %d: window holds %d samples, want %d", i, w.Len(), len(live))
		}
		for j, s := range w.Samples() {
			if math.Float64bits(s.M.Core) != math.Float64bits(live[j].M.Core) {
				t.Fatalf("op %d: window sample %d is not the expected one", i, j)
			}
		}
		if !planSet {
			continue
		}
		opts := FitOptions{Scope: plan.Scope, IncludeChipShare: plan.IncludeChipShare, IdleW: 7}
		got, gotErr := w.Solve(opts)
		want, wantErr := Fit(append(append([]CalSample(nil), base...), live...), opts)
		switch {
		case exact:
			if (gotErr == nil) != (wantErr == nil) || got != want {
				t.Fatalf("op %d: window fit %+v (err %v) differs from batch %+v (err %v) with no eviction since the last rebuild",
					i, got, gotErr, want, wantErr)
			}
		case len(base)+len(live) >= 2*plan.K():
			if gotErr != nil || wantErr != nil {
				t.Fatalf("op %d: well-determined fit failed: window %v, batch %v", i, gotErr, wantErr)
			}
			gv, wv := got.Vector(), want.Vector()
			for j := range wv {
				if math.Abs(gv[j]-wv[j]) > 1e-9*(1+math.Max(math.Abs(gv[j]), math.Abs(wv[j]))) {
					t.Fatalf("op %d: coefficient %d = %v, batch %v — drifted past 1e-9", i, j, gv[j], wv[j])
				}
			}
		}
	}
}

// windowScript returns a deterministic script: a plan, a run of adds
// interleaved with trims (evictions, rebuilds), a plan switch and more of
// the same.
func windowScript() []byte {
	var ops []byte
	ops = append(ops, 3|2<<2) // machine scope, chip share
	for i := 0; i < 40; i++ {
		ops = append(ops, 0|byte(i%7+1)<<2)
		if i%3 == 2 {
			ops = append(ops, 2|byte(8+i%4)<<2)
		}
	}
	ops = append(ops, 3|3<<2) // package scope, chip share
	for i := 0; i < 30; i++ {
		ops = append(ops, 1|byte(i%9+1)<<2, 2|11<<2)
	}
	return ops
}

// TestWindowMatchesFit runs the deterministic script over bases of several
// sizes and rebuild cadences, with and without a base sample that lacks a
// package reading.
func TestWindowMatchesFit(t *testing.T) {
	for _, seed := range []uint64{0, 1, 16, 5, 47, 100, 191} {
		checkWindowScript(t, seed, windowScript())
	}
}

// TestWindowRefusals pins what a window refuses and that a refusal leaves
// it as it was.
func TestWindowRefusals(t *testing.T) {
	rng := sim.NewRand(3)
	base := []CalSample{windowSample(rng, true), windowSample(rng, false)}
	w := NewWindow(base, 4)
	if err := w.Add(windowSample(rng, false)); !errors.Is(err, errNoPlan) {
		t.Fatalf("Add before SetPlan: err = %v, want errNoPlan", err)
	}
	machine := FitPlan{Scope: ScopeMachine}
	if err := w.SetPlan(machine); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(windowSample(rng, false)); err != nil {
		t.Fatal(err)
	}
	before := w.AppendCanonical(nil)
	if err := w.SetPlan(FitPlan{Scope: ScopePackage}); err == nil {
		t.Fatal("package plan accepted over a base sample without a package reading")
	}
	if _, err := w.Solve(FitOptions{Scope: ScopePackage}); err == nil {
		t.Fatal("package-scope solve accepted over the same base")
	}
	if after := w.AppendCanonical(nil); !bytes.Equal(after, before) || w.Len() != 1 {
		t.Fatalf("refused plan changed the window: %x, was %x", after, before)
	}
}

// FuzzWindow checks arbitrary Add/Trim/SetPlan scripts against batch fits
// (see checkWindowScript).
func FuzzWindow(f *testing.F) {
	f.Add(uint64(1), windowScript())
	f.Add(uint64(0), []byte{3, 0, 0, 2, 0, 2})
	f.Add(uint64(5), []byte{7, 11, 0, 4, 8, 2, 6, 11, 0, 2})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		checkWindowScript(t, seed, ops)
	})
}
