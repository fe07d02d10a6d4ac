package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"powercontainers/internal/linalg"
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

// refWindow is the window layout Window replaced, kept as its reference:
// the same folds, in the same order, but Trim copies the surviving samples
// down on every eviction and rebuild collects the kept samples into a
// fresh slice, so the live window is always the whole slice.
type refWindow struct {
	base         []CalSample
	rebuildEvery int
	plan         FitPlan
	baseGram     *linalg.Gram
	gram         *linalg.Gram
	samples      []CalSample
	evictions    int
	evTotal      int64
}

func (r *refWindow) setPlan(p FitPlan) {
	if r.gram != nil && p == r.plan {
		return
	}
	base, err := foldAll(p, r.base)
	if err != nil {
		return
	}
	r.plan, r.baseGram = p, base
	r.rebuild()
}

func (r *refWindow) rebuild() {
	g := r.baseGram.Clone()
	var kept []CalSample
	for i := range r.samples {
		if r.plan.Fold(g, &r.samples[i]) == nil {
			kept = append(kept, r.samples[i])
		}
	}
	r.samples, r.gram, r.evictions = kept, g, 0
}

func (r *refWindow) add(s CalSample) {
	if r.gram != nil && r.plan.Fold(r.gram, &s) == nil {
		r.samples = append(r.samples, s)
	}
}

func (r *refWindow) trim(max int) {
	over := len(r.samples) - max
	if over <= 0 {
		return
	}
	for i := range r.samples[:over] {
		if err := r.plan.Unfold(r.gram, &r.samples[i]); err != nil {
			panic(err)
		}
	}
	r.samples = append([]CalSample(nil), r.samples[over:]...)
	r.evictions += over
	r.evTotal += int64(over)
	if r.evictions >= r.rebuildEvery {
		r.rebuild()
	}
}

// canonical returns w.AppendCanonical's bytes, or the panic message of a
// window holding a non-finite sample value.
func canonical(w *Window) (enc []byte, refused string) {
	defer func() {
		if p := recover(); p != nil {
			refused = fmt.Sprint(p)
		}
	}()
	return w.AppendCanonical(nil), ""
}

// checkSameWindow fails unless w and its reference hold the same samples,
// bit for bit, the same counters and accumulators, and encode alike.
func checkSameWindow(t *testing.T, op int, w *Window, ref *refWindow) {
	t.Helper()
	got := w.Samples()
	if len(got) != len(ref.samples) {
		t.Fatalf("op %d: window holds %d samples, reference %d", op, len(got), len(ref.samples))
	}
	for j := range got {
		if !bytes.Equal(sampleBits(&got[j]), sampleBits(&ref.samples[j])) {
			t.Fatalf("op %d: window sample %d = %+v, reference %+v", op, j, got[j], ref.samples[j])
		}
	}
	if w.evictions != ref.evictions || w.evTotal != ref.evTotal || (w.gram == nil) != (ref.gram == nil) {
		t.Fatalf("op %d: window evictions %d/%d plan set %v, reference %d/%d %v",
			op, w.evictions, w.evTotal, w.gram != nil, ref.evictions, ref.evTotal, ref.gram != nil)
	}
	if w.gram != nil && !bytes.Equal(w.gram.AppendCanonical(nil), ref.gram.AppendCanonical(nil)) {
		t.Fatalf("op %d: window accumulators differ from the reference's", op)
	}
	enc, refused := canonical(w)
	refEnc, refRefused := canonical(&Window{plan: ref.plan, gram: ref.gram, samples: ref.samples,
		evictions: ref.evictions, evTotal: ref.evTotal})
	if refused != refRefused || !bytes.Equal(enc, refEnc) {
		t.Fatalf("op %d: window encodes as %x (refused %q), reference %x (refused %q)", op, enc, refused, refEnc, refRefused)
	}
}

// sampleBits returns the bits of every value of s, in field order.
func sampleBits(s *CalSample) []byte {
	var out []byte
	for _, v := range [...]float64{s.M.Core, s.M.Ins, s.M.Float, s.M.Cache, s.M.Mem, s.M.Chip, s.M.Disk, s.M.Net,
		s.MachineActiveW, s.PkgActiveW, s.Weight} {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// checkWindowScript drives a Window through an op script and checks it
// after every op against a model of its contents, a batch Fit over base
// plus window, and the reference layout (see checkSameWindow). Each op
// byte's low two bits pick the op (0, 1: Add; 2: Trim; 3: SetPlan) and its
// high six bits the argument. The seed fixes the base block (empty to 23
// samples; with seed%5 == 0 its first sample lacks a package reading, so
// package-scope plans must be refused), the rebuild cadence (1 to 8) and
// the sample values.
func checkWindowScript(t *testing.T, seed uint64, ops []byte) {
	t.Helper()
	rng := sim.NewRand(seed)
	base := make([]CalSample, int(seed%24))
	for i := range base {
		base[i] = windowSample(rng, i == 0 && seed%5 == 0)
	}
	every := int(seed/24%8) + 1
	w := NewWindow(base, every)
	ref := &refWindow{base: base, rebuildEvery: every}

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
			ref.add(s)
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
			ref.trim(max)
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
			ref.setPlan(p)
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

		checkSameWindow(t, i, w, ref)
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

// longWindowScript returns a script that crosses several rebuilds with
// the head advanced: it fills the window past its cap and then trims it
// by fewer samples than the rebuild cadence at a time, adding between
// trims, so evicted samples sit below the head while new ones arrive
// behind them.
func longWindowScript() []byte {
	ops := []byte{3 | 2<<2} // machine scope, chip share
	for i := 0; i < 60; i++ {
		ops = append(ops, 0|byte(i%7+1)<<2)
		if i%2 == 1 {
			ops = append(ops, 2|byte(9+i%3)<<2)
		}
	}
	return ops
}

// TestWindowCompactsInRebuild pins the storage bound eviction by head
// index keeps: the array holds at most the cap plus the rebuild cadence
// plus one batch of adds, and each rebuild moves the live samples to its
// front.
func TestWindowCompactsInRebuild(t *testing.T) {
	const limit, every, batch = 40, 16, 5
	rng := sim.NewRand(9)
	w := NewWindow(nil, every)
	if err := w.SetPlan(FitPlan{Scope: ScopeMachine, IncludeChipShare: true}); err != nil {
		t.Fatal(err)
	}
	rebuilds := 0
	for tick := 0; tick < 200; tick++ {
		for i := 0; i < batch; i++ {
			if err := w.Add(windowSample(rng, false)); err != nil {
				t.Fatal(err)
			}
		}
		if len(w.samples) > limit+every+batch {
			t.Fatalf("tick %d: array holds %d samples, bound %d", tick, len(w.samples), limit+every+batch)
		}
		w.Trim(limit)
		if w.head == 0 && w.Evictions() > 0 {
			rebuilds++
		}
	}
	if rebuilds < 10 {
		t.Fatalf("%d rebuilds compacted the window in 200 ticks, want at least 10", rebuilds)
	}
}

// FuzzWindow checks arbitrary Add/Trim/SetPlan scripts against batch fits
// and the reference layout (see checkWindowScript).
func FuzzWindow(f *testing.F) {
	f.Add(uint64(1), windowScript())
	f.Add(uint64(0), []byte{3, 0, 0, 2, 0, 2})
	f.Add(uint64(5), []byte{7, 11, 0, 4, 8, 2, 6, 11, 0, 2})
	f.Add(uint64(24*7+3), longWindowScript()) // cadence 8, a 3-sample base
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		checkWindowScript(t, seed, ops)
	})
}
