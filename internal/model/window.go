package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"powercontainers/internal/linalg"
)

// Window is the incremental least-squares fit of online recalibration
// (§3.2): the normal equations over a fixed base block (the offline
// calibration samples, possibly none) plus a bounded FIFO window of online
// samples, weighed equally. Add folds a sample in and Trim folds the oldest
// out, so a solve costs O(k³) instead of a pass over every retained sample.
//
// Eviction copies nothing: Trim downdates the oldest samples and advances
// a head index past them, and the exact rebuild, which walks every live
// sample anyway, moves the survivors down to the front of the array as it
// refolds them. The array therefore holds at most the window's cap plus
// rebuildEvery evictions plus one batch of adds.
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
	samples   []CalSample  // samples[head:] is the window, oldest first
	head      int          // evicted samples not yet compacted away
	evictions int          // since the last rebuild
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
// compacting the samples it keeps to the front of the array: the evicted
// prefix goes, and so do samples the plan cannot fold (only a plan change
// can leave any).
func (w *Window) rebuild() {
	g := w.baseGram.Clone()
	kept := 0
	for i := w.head; i < len(w.samples); i++ {
		s := &w.samples[i]
		if w.plan.Fold(g, s) != nil {
			continue
		}
		if kept != i {
			w.samples[kept] = *s
		}
		kept++
	}
	w.samples, w.head, w.gram, w.evictions = w.samples[:kept], 0, g, 0
}

// Add appends a sample to the window. A sample the plan cannot fold is
// not kept, and its error is returned.
func (w *Window) Add(s CalSample) error {
	if w.gram == nil {
		return errNoPlan
	}
	if err := w.plan.Fold(w.gram, &s); err != nil {
		return err
	}
	w.samples = append(w.samples, s)
	return nil
}

// Trim evicts the oldest samples beyond max and returns how many it
// evicted. Once rebuildEvery evictions have passed since the last rebuild,
// the accumulators are rebuilt exactly.
func (w *Window) Trim(max int) int {
	over := w.Len() - max
	if over <= 0 {
		return 0
	}
	evicted := w.Samples()[:over]
	for i := range evicted {
		// Every window sample was folded under the current plan, so the
		// downdate can neither reject its row nor find the Gram empty.
		if err := w.plan.Unfold(w.gram, &evicted[i]); err != nil {
			panic(fmt.Sprintf("model: window downdate: %v", err))
		}
	}
	w.head += over
	w.evictions += over
	w.evTotal += int64(over)
	if w.evictions >= w.rebuildEvery {
		w.rebuild()
	}
	return over
}

// Len returns the number of window samples (the base block not counted).
func (w *Window) Len() int { return len(w.samples) - w.head }

// Samples returns the window samples, oldest first. The slice is the
// window's own and is valid until the next SetPlan, Add or Trim.
func (w *Window) Samples() []CalSample { return w.samples[w.head:] }

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

// AppendCanonical appends the window's canonical bytes to dst and returns
// the extended slice, its base block aside (it is retained, not copied, and
// fixed for the window's life): whether a plan is set, the plan, the sample
// count and the samples in order, the evictions since the last rebuild and
// in total, then the accumulators verbatim (linalg.Gram.AppendCanonical)
// when a plan is set. Integers take 8 little-endian bytes, a float64 its
// IEEE-754 bits the same way, a bool one byte. Equal windows encode alike,
// and a difference anywhere, Remove residue included, changes the bytes.
// A non-finite sample value panics naming it.
func (w *Window) AppendCanonical(dst []byte) []byte {
	dst = appendBool(dst, w.gram != nil)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.plan.Scope))
	dst = appendBool(dst, w.plan.IncludeChipShare)
	live := w.Samples()
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(live)))
	for i := range live {
		s := &live[i]
		vals := [...]float64{s.M.Core, s.M.Ins, s.M.Float, s.M.Cache, s.M.Mem, s.M.Chip, s.M.Disk, s.M.Net,
			s.MachineActiveW, s.PkgActiveW, s.Weight}
		for j, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("model: window sample %d %s is not finite: %v", i, sampleFields[j], v))
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.evictions))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.evTotal))
	if w.gram != nil {
		dst = w.gram.AppendCanonical(dst)
	}
	return dst
}

// sampleFields names AppendCanonical's per-sample values, in order.
var sampleFields = [...]string{"M.Core", "M.Ins", "M.Float", "M.Cache", "M.Mem", "M.Chip", "M.Disk", "M.Net",
	"MachineActiveW", "PkgActiveW", "Weight"}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
