package model

import (
	"errors"
	"fmt"

	"powercontainers/internal/linalg"
)

// Window is the incremental least-squares fit of online recalibration
// (§3.2): the normal equations over a fixed base block (the offline
// calibration samples, possibly none) plus a bounded FIFO window of online
// samples, weighed equally. Add folds a sample in and Trim folds the oldest
// out, so a solve costs O(k³) instead of a pass over every retained sample.
//
// Exactness: a plan change, and every rebuildEvery evictions, rebuild the
// accumulators from base plus window in sample order — the accumulation
// Fit performs — so Solve is bit-identical to Fit over base plus window
// until the first eviction after a rebuild. An eviction's downdate leaves
// rounding-level residue (float addition does not associate), which the
// next rebuild clears.
//
// A sample the plan cannot fold (package scope without a package reading)
// is not kept, so the accumulators always cover exactly the base block and
// the window.
type Window struct {
	base         []CalSample
	rebuildEvery int

	plan      FitPlan
	baseGram  *linalg.Gram // the base block alone; nil until a plan is set
	gram      *linalg.Gram // base block plus window; nil until a plan is set
	samples   []CalSample
	evictions int // since the last rebuild
	evTotal   int64
}

// NewWindow returns a window over the given base block that rebuilds its
// accumulators exactly every rebuildEvery evictions. The base is retained,
// not copied. SetPlan must precede the first Add.
func NewWindow(base []CalSample, rebuildEvery int) *Window {
	if rebuildEvery <= 0 {
		panic(fmt.Sprintf("model: NewWindow with rebuild cadence %d", rebuildEvery))
	}
	return &Window{base: base, rebuildEvery: rebuildEvery}
}

// errNoPlan is Add's refusal before the first successful SetPlan.
var errNoPlan = errors.New("model: window has no fit plan")

// SetPlan switches the regression layout. The first call, and any call
// with a different plan, rebuild the accumulators exactly from base plus
// window, dropping window samples the new plan cannot fold. It fails when a
// base sample cannot be folded under the plan, leaving the window as it
// was.
func (w *Window) SetPlan(p FitPlan) error {
	if w.gram != nil && p == w.plan {
		return nil
	}
	base, err := foldAll(p, w.base)
	if err != nil {
		return err
	}
	w.plan, w.baseGram = p, base
	w.rebuild()
	return nil
}

// rebuild refolds the window onto a copy of the base block's accumulators,
// compacting away samples the plan cannot fold (only a plan change can
// leave any, so the common case moves nothing).
func (w *Window) rebuild() {
	g := w.baseGram.Clone()
	kept := 0
	for i := range w.samples {
		if w.plan.Fold(g, w.samples[i]) != nil {
			continue
		}
		if kept != i {
			w.samples[kept] = w.samples[i]
		}
		kept++
	}
	w.samples, w.gram, w.evictions = w.samples[:kept], g, 0
}

// Add appends a sample to the window. A sample the plan cannot fold is
// not kept, and its error is returned.
func (w *Window) Add(s CalSample) error {
	if w.gram == nil {
		return errNoPlan
	}
	if err := w.plan.Fold(w.gram, s); err != nil {
		return err
	}
	w.samples = append(w.samples, s)
	return nil
}

// Trim evicts the oldest samples beyond max and returns how many it
// evicted. Once rebuildEvery evictions have passed since the last rebuild,
// the accumulators are rebuilt exactly.
func (w *Window) Trim(max int) int {
	over := len(w.samples) - max
	if over <= 0 {
		return 0
	}
	for _, s := range w.samples[:over] {
		// Every window sample was folded under the current plan, so the
		// downdate can neither reject its row nor find the Gram empty.
		if err := w.plan.Unfold(w.gram, s); err != nil {
			panic(fmt.Sprintf("model: window downdate: %v", err))
		}
	}
	w.samples = append(w.samples[:0], w.samples[over:]...)
	w.evictions += over
	w.evTotal += int64(over)
	if w.evictions >= w.rebuildEvery {
		w.rebuild()
	}
	return over
}

// Len returns the number of window samples (the base block not counted).
func (w *Window) Len() int { return len(w.samples) }

// Samples returns the window samples, oldest first. The slice is the
// window's own and is valid until the next SetPlan, Add or Trim.
func (w *Window) Samples() []CalSample { return w.samples }

// Evictions returns how many samples Trim has ever evicted.
func (w *Window) Evictions() int64 { return w.evTotal }

// Solve fits base plus window under opts, first switching the plan (see
// SetPlan) when opts asks for a different one.
func (w *Window) Solve(opts FitOptions) (Coefficients, error) {
	if err := w.SetPlan(opts.plan()); err != nil {
		return Coefficients{}, err
	}
	return FitFromGram(w.gram, opts)
}

// SolveBase fits the base block alone under opts, switching the plan as
// Solve does.
func (w *Window) SolveBase(opts FitOptions) (Coefficients, error) {
	if err := w.SetPlan(opts.plan()); err != nil {
		return Coefficients{}, err
	}
	return FitFromGram(w.baseGram, opts)
}

// WindowState is the serializable state of a Window, its base block aside.
// The accumulators travel verbatim: rebuilding them from the samples would
// drop the downdate residue, and the restored window would drift from the
// uninterrupted one at the ulp level. The JSON names are a persisted
// format (stream checkpoints embed this state).
type WindowState struct {
	Plan      FitPlan           `json:"plan"`
	PlanKnown bool              `json:"plan_known"`
	Samples   []CalSample       `json:"pairs,omitempty"`
	Evictions int               `json:"evictions"`
	EvTotal   int64             `json:"ev_total"`
	Gram      *linalg.GramState `json:"gram,omitempty"`
}

// State returns a deep-copied snapshot of the window.
func (w *Window) State() WindowState {
	st := WindowState{Evictions: w.evictions, EvTotal: w.evTotal}
	if len(w.samples) > 0 {
		st.Samples = append([]CalSample(nil), w.samples...)
	}
	if w.gram != nil {
		g := w.gram.State()
		st.Plan, st.PlanKnown, st.Gram = w.plan, true, &g
	}
	return st
}

// Restore replaces the window's state with a snapshot State took on a
// window over the same base block; the restored window continues
// bit-identically. A snapshot inconsistent with the base block is refused
// and leaves the window as it was.
func (w *Window) Restore(st WindowState) error {
	var base, g *linalg.Gram
	if st.PlanKnown != (st.Gram != nil) {
		return fmt.Errorf("model: window state plan_known=%v with accumulators present=%v", st.PlanKnown, st.Gram != nil)
	}
	if st.Gram == nil {
		if len(st.Samples) > 0 {
			return fmt.Errorf("model: window state holds %d samples but no plan", len(st.Samples))
		}
	} else {
		var err error
		if g, err = linalg.GramFromState(*st.Gram); err != nil {
			return err
		}
		if base, err = foldAll(st.Plan, w.base); err != nil {
			return err
		}
		if g.K() != base.K() || g.N() != len(w.base)+len(st.Samples) {
			return fmt.Errorf("model: window state accumulators (k=%d n=%d) do not match plan k=%d over %d base + %d window samples",
				g.K(), g.N(), base.K(), len(w.base), len(st.Samples))
		}
	}
	w.plan, w.baseGram, w.gram = st.Plan, base, g
	w.samples = append(w.samples[:0], st.Samples...)
	w.evictions, w.evTotal = st.Evictions, st.EvTotal
	return nil
}
