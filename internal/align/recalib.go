package align

import (
	"fmt"

	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// onlineRebuildEvery is how many FIFO evictions the online window's
// downdates may absorb before an exact rebuild from the offline block plus
// the live window (model.Window).
const onlineRebuildEvery = 256

// Recalibrator performs the paper's measurement-aligned online model
// recalibration: it ingests newly delivered meter readings, aligns them
// with the facility's system metric series using the estimated delay, and
// refits the model over the union of offline calibration samples and online
// samples, weighed equally (§3.2).
//
// The refit is incremental (model.Window): the offline block's normal
// equations are accumulated once, online pairs fold in at Ingest and fold
// out on MaxOnline eviction, so Refit pays only the O(k³) solve instead of
// re-accumulating O(offline+online) samples.
type Recalibrator struct {
	// Meter supplies online measurements.
	Meter power.Meter
	// Scope selects the regression target: package-scope against an
	// on-chip meter, machine-scope against a wall meter.
	Scope model.FitScope
	// MaxOnline bounds the retained online sample set (FIFO eviction).
	MaxOnline int
	// MinOnline is the number of online samples required before the
	// first refit.
	MinOnline int
	// AutoAlignAfter is how many delivered samples to accumulate before
	// estimating the delay; until then Ingest buffers without aligning.
	AutoAlignAfter int
	// MaxDelay bounds the delay search.
	MaxDelay sim.Time
	// Robust configures MAD-based outlier rejection and refit sanity
	// gating (robust.go); the zero value disables both.
	Robust Robust
	// Observer, when non-nil, sees degradation actions
	// (sim.KindRecalReject and sim.KindRecalFallback).
	Observer sim.Observer

	delay      sim.Time
	delayKnown bool
	// online is the fit over the offline calibration block plus the
	// retained online samples.
	online    *model.Window
	seen      int
	buffered  []power.Sample
	pairs     []AlignedPair // Ingest's reused alignment buffer
	refits    int
	rejected  int
	fallbacks int

	// lastNow is the most recent Ingest time, used to stamp observations
	// emitted from Refit (which has no clock of its own).
	lastNow sim.Time
}

// NewRecalibrator returns a recalibrator refitting over the given offline
// calibration block, with sensible defaults for the meter: the delay
// search spans 10× the meter interval plus 2 s.
func NewRecalibrator(meter power.Meter, scope model.FitScope, offline []model.CalSample) *Recalibrator {
	return &Recalibrator{
		Meter:          meter,
		Scope:          scope,
		MaxOnline:      4000,
		MinOnline:      8,
		AutoAlignAfter: 10,
		MaxDelay:       2*sim.Second + 2*meter.Interval(),
		online:         model.NewWindow(offline, onlineRebuildEvery),
	}
}

// Delay returns the estimated measurement delay and whether it is known yet.
func (r *Recalibrator) Delay() (sim.Time, bool) { return r.delay, r.delayKnown }

// SetDelay fixes the delay explicitly (used when a prior alignment run
// already measured it; the paper notes the lag on a given system is
// unlikely to change dynamically).
func (r *Recalibrator) SetDelay(d sim.Time) {
	r.delay, r.delayKnown = d, true
}

// OnlineCount returns the number of retained online samples.
func (r *Recalibrator) OnlineCount() int { return r.online.Len() }

// Refits returns how many successful refits have been performed.
func (r *Recalibrator) Refits() int { return r.refits }

// Rejected returns how many aligned pairs robust ingestion has discarded.
func (r *Recalibrator) Rejected() int { return r.rejected }

// Fallbacks returns how many divergent refits fell back to the offline fit.
func (r *Recalibrator) Fallbacks() int { return r.fallbacks }

// MetricsFloor returns the earliest time whose metric bucket a future
// Ingest can read. Until the delay is known, Ingest buffers every
// delivered sample and aligns them all once it locks, so the floor is
// zero. After that it reads only for samples it has not aligned yet:
// those still buffered and those arriving after the last Ingest, each
// over its window [arrival − delay − meter interval, arrival − delay).
func (r *Recalibrator) MetricsFloor() sim.Time {
	if !r.delayKnown {
		return 0
	}
	arrival := r.lastNow
	for _, s := range r.buffered {
		arrival = min(arrival, s.Arrival)
	}
	return max(arrival-r.delay-r.Meter.Interval(), 0)
}

// readFresh pulls meter samples not seen by a previous Ingest. Meters that
// implement power.SinceReader skip rematerializing the already-consumed
// prefix — without it, every Ingest re-derives all samples since time zero.
func (r *Recalibrator) readFresh(now sim.Time) []power.Sample {
	fresh, seen := power.ReadFresh(r.Meter, now, r.seen)
	r.seen = seen
	return fresh
}

// Ingest pulls newly delivered meter samples at time now, aligns them
// against the metric series, and appends online calibration samples.
// It returns the number of new online samples.
func (r *Recalibrator) Ingest(now sim.Time, ms *model.MetricSeries, current model.Coefficients) int {
	r.lastNow = now
	fresh := r.readFresh(now)
	if len(fresh) == 0 {
		return 0
	}
	r.buffered = append(r.buffered, fresh...)

	if !r.delayKnown {
		if len(r.buffered) < r.AutoAlignAfter {
			return 0
		}
		// The search runs once per run in practice (the lag is fixed), so
		// it recomputes the modeled trace from bucket 0 at each attempt.
		curve := CorrelationCurve(r.buffered, r.Meter.IdleW(), r.Meter.Interval(),
			ms.ModeledPower(current, ms.Len()), ms.Interval(), ms.Interval(), 0, r.MaxDelay)
		d, err := EstimateDelay(curve)
		if err != nil {
			return 0
		}
		r.SetDelay(d)
	}

	r.pairs = AlignSamples(r.pairs[:0], r.buffered, r.Meter.IdleW(), r.Meter.Interval(), ms, r.delay)
	pairs := r.pairs
	r.buffered = r.buffered[:0]
	if r.Robust.Enabled {
		pairs = r.rejectOutliers(now, pairs, current)
	}
	// An offline block the plan cannot fold leaves the window on its
	// previous plan; Refit, which asks for the same plan, reports why.
	_ = r.online.SetPlan(model.FitPlan{Scope: r.Scope, IncludeChipShare: current.IncludesChipShare})
	added := 0
	for _, p := range pairs {
		// A pair the plan cannot fold (a package-scope pair without a
		// reading) is not kept.
		if r.online.Add(p.CalSample(r.Scope)) == nil {
			added++
		}
	}
	r.online.Trim(r.MaxOnline)
	return added
}

// fitOptions is the refit configuration under base: the recalibrator's
// scope, with base supplying the plan's chip-share column, the idle power
// and the terms outside the fitted scope.
func (r *Recalibrator) fitOptions(base model.Coefficients) model.FitOptions {
	return model.FitOptions{
		Scope:            r.Scope,
		IncludeChipShare: base.IncludesChipShare,
		IdleW:            base.IdleW,
		Base:             base,
	}
}

// Refit fits the model over offline+online samples, equally weighted. The
// base coefficients supply any terms outside the fitted scope; a base whose
// chip-share layout differs from the one Ingest accumulated under rebuilds
// the window exactly before the solve. With Robust enabled, a successful
// fit additionally passes the sanity gate: a divergent result is replaced
// by the offline-only fit (robust.go).
func (r *Recalibrator) Refit(base model.Coefficients) (model.Coefficients, error) {
	if n := r.online.Len(); n < r.MinOnline {
		return base, fmt.Errorf("align: only %d online samples (need %d)", n, r.MinOnline)
	}
	c, err := r.online.Solve(r.fitOptions(base))
	if err != nil {
		return base, err
	}
	r.refits++
	if !r.Robust.Enabled {
		return c, nil
	}
	return r.saneOrFallback(r.lastNow, base, c)
}
