package align

import (
	"math"
	"sort"

	"powercontainers/internal/model"
	"powercontainers/internal/sim"
)

// robustMADK is the outlier rejection threshold in robust standard
// deviations (1.4826·MAD); robustMinPairs is the smallest aligned batch
// worth computing robust statistics over — smaller batches pass through
// unfiltered; defaultRobustMaxShift is the MaxShift a zero Robust selects.
const (
	robustMADK            = 5.0
	robustMinPairs        = 8
	defaultRobustMaxShift = 3.0
)

// Robust configures the Recalibrator's graceful-degradation responses to
// corrupted measurements: MAD-based outlier rejection of aligned pairs at
// ingestion, and a coefficient sanity gate that falls back to the offline
// calibration base when a refit diverges. The zero value disables both —
// the legacy ingest-everything behaviour, kept bit-identical so robustness
// is individually ablatable.
type Robust struct {
	// Enabled turns on outlier rejection and refit sanity gating.
	Enabled bool
	// MaxShift bounds how far (relative L2 distance over the coefficient
	// vector) a refit may move from the offline-only fit before it is
	// deemed divergent and replaced by that fit; default 3.
	MaxShift float64
}

// estimate is the scope-consistent model prediction for an aligned pair:
// package-scope meters see only processor-side terms, machine-scope meters
// see devices too.
func (r *Recalibrator) estimate(c model.Coefficients, m model.Metrics) float64 {
	if r.Scope == model.ScopePackage {
		return c.EstimateCPU(m)
	}
	return c.Estimate(m)
}

func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// rejectOutliers drops aligned pairs whose model residual deviates from
// the batch median by more than robustMADK robust standard deviations. Outlier
// spikes and stuck readings land far outside the residual cloud of honest
// measurement noise, so they are rejected before they reach the normal
// equations; a degenerate batch (zero MAD, or fewer than robustMinPairs pairs)
// passes through untouched rather than trusting unstable statistics.
func (r *Recalibrator) rejectOutliers(now sim.Time, pairs []AlignedPair, current model.Coefficients) []AlignedPair {
	if len(pairs) < robustMinPairs {
		return pairs
	}
	res := make([]float64, len(pairs))
	for i, p := range pairs {
		res[i] = p.ActiveW - r.estimate(current, p.M)
	}
	med := median(append([]float64(nil), res...))
	absdev := make([]float64, len(res))
	for i, v := range res {
		absdev[i] = math.Abs(v - med)
	}
	// 1.4826·MAD estimates σ for gaussian residuals.
	scale := 1.4826 * median(absdev)
	if !(scale > 0) {
		return pairs // all residuals identical: nothing to reject against
	}
	thr := robustMADK * scale
	kept := make([]AlignedPair, 0, len(pairs))
	for i, p := range pairs {
		if math.Abs(res[i]-med) > thr {
			r.rejected++
			if r.Observer != nil {
				r.Observer.Observe(sim.Event{Kind: sim.KindRecalReject, T: now, X: res[i] - med, Y: thr})
			}
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// saneOrFallback gates a successful refit: non-finite coefficients or a
// relative shift beyond MaxShift from the offline-only fit mark the refit
// divergent (corrupted online samples overwhelmed the window), and the
// offline fit is returned instead.
func (r *Recalibrator) saneOrFallback(now sim.Time, base, c model.Coefficients) (model.Coefficients, error) {
	off, err := r.online.SolveBase(r.fitOptions(base))
	if err != nil {
		return c, nil // no reference to gate against; keep the refit
	}
	maxShift := r.Robust.MaxShift
	if maxShift <= 0 {
		maxShift = defaultRobustMaxShift
	}
	var dist2, norm2 float64
	cv, ov := c.Vector(), off.Vector()
	sane := true
	for i := range cv {
		if math.IsNaN(cv[i]) || math.IsInf(cv[i], 0) {
			sane = false
			break
		}
		d := cv[i] - ov[i]
		dist2 += d * d
		norm2 += ov[i] * ov[i]
	}
	if sane && math.Sqrt(dist2) <= maxShift*(math.Sqrt(norm2)+1e-9) {
		return c, nil
	}
	r.fallbacks++
	if r.Observer != nil {
		r.Observer.Observe(sim.Event{Kind: sim.KindRecalFallback, T: now, Detail: "refit diverged from offline base"})
	}
	return off, nil
}
