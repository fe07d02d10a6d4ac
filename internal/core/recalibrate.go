package core

import (
	"powercontainers/internal/align"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// DefaultRecalibrationPeriod is how often the facility ingests newly
// delivered meter samples and refits the model. The least-square refit
// costs ~16 µs (§3.5), negligible at this cadence.
const DefaultRecalibrationPeriod = 100 * sim.Millisecond

// EnableRecalibration switches the facility to Approach #3: a periodic task
// aligns newly delivered readings from the meter with the system metric
// series and refits the model over offline + online samples. The returned
// recalibrator exposes the estimated delay and refit statistics.
//
// The periodic event reschedules itself forever; drive the engine with
// RunUntil rather than Run.
func (f *Facility) EnableRecalibration(meter power.Meter, scope model.FitScope,
	offline []model.CalSample, period sim.Time) *align.Recalibrator {

	if period <= 0 {
		period = DefaultRecalibrationPeriod
	}
	f.cfg.Approach = ApproachRecalibrated
	f.recal = align.NewRecalibrator(meter, scope, offline)
	f.recal.Observer = f.Observer
	r := f.recal
	var tick func()
	tick = func() {
		if f.recal != r {
			return // superseded or disabled
		}
		f.RecalibrateNow()
		f.K.Eng.After(period, tick)
	}
	f.K.Eng.After(period, tick)
	return r
}

// FailoverConfig describes a recalibration setup with a meter-health
// watchdog: if the primary meter stops delivering samples for DeadAfter of
// virtual time, the facility fails over to the fallback meter, building a
// fresh recalibrator whose delivery delay is re-estimated from scratch via
// the usual cross-correlation path.
type FailoverConfig struct {
	// Primary is the preferred meter (typically the chip meter).
	Primary power.Meter
	// PrimaryScope is the fit scope matching Primary.
	PrimaryScope model.FitScope
	// Fallback is the standby meter (typically the wall meter).
	Fallback power.Meter
	// FallbackScope is the fit scope matching Fallback.
	FallbackScope model.FitScope
	// Offline is the offline calibration block shared by both fits.
	Offline []model.CalSample
	// Period is the recalibration cadence (DefaultRecalibrationPeriod
	// when zero).
	Period sim.Time
	// DeadAfter is how long the primary may deliver nothing before the
	// watchdog declares it dead. Zero defaults to 10 recalibration
	// periods — long enough to tolerate the meter's own delivery delay.
	DeadAfter sim.Time
	// Robust configures the recalibrator's degradation responses; it is
	// carried over to the fallback recalibrator on failover.
	Robust align.Robust
}

// EnableRecalibrationFailover is EnableRecalibration plus a meter-health
// watchdog. Each tick, after the usual ingest+refit, the watchdog checks
// whether the primary recalibrator has received any new samples since the
// last tick; once the silence exceeds cfg.DeadAfter the facility swaps in
// a recalibrator on the fallback meter (same offline block, same Robust
// policy) and reports the failover to the facility's observer. The failover
// fires at most once; the returned pointer tracks the active recalibrator
// via Facility.Recalibrator.
func (f *Facility) EnableRecalibrationFailover(cfg FailoverConfig) *align.Recalibrator {
	period := cfg.Period
	if period <= 0 {
		period = DefaultRecalibrationPeriod
	}
	deadAfter := cfg.DeadAfter
	if deadAfter <= 0 {
		deadAfter = 10 * period
	}
	r := f.EnableRecalibration(cfg.Primary, cfg.PrimaryScope, cfg.Offline, period)
	r.Robust = cfg.Robust

	lastDelivered := 0
	var silentSince sim.Time
	failedOver := false
	var watch func()
	watch = func() {
		if f.recal == nil || (f.recal != r && !failedOver) {
			return // superseded or disabled
		}
		now := f.K.Now()
		if failedOver {
			return // single failover; the fallback has no further standby
		}
		if d := r.Delivered(); d > lastDelivered {
			lastDelivered = d
			silentSince = now
		} else if now-silentSince > deadAfter {
			failedOver = true
			fb := align.NewRecalibrator(cfg.Fallback, cfg.FallbackScope, cfg.Offline)
			fb.Robust = cfg.Robust
			fb.Observer = f.Observer
			if f.Observer != nil {
				f.Observer.Observe(sim.Event{Kind: sim.KindRecalFallback, T: now,
					Detail: "primary meter " + cfg.Primary.Name() + " silent; failing over to " + cfg.Fallback.Name()})
			}
			f.recal = fb
			var tick func()
			tick = func() {
				if f.recal != fb {
					return
				}
				f.RecalibrateNow()
				f.K.Eng.After(period, tick)
			}
			f.K.Eng.After(period, tick)
			return
		}
		f.K.Eng.After(period, watch)
	}
	f.K.Eng.After(period+1, watch) // strictly after each recalibration tick
	return r
}

// RecalibrateNow performs one ingest+refit step immediately.
func (f *Facility) RecalibrateNow() {
	if f.recal == nil {
		return
	}
	added := f.recal.Ingest(f.K.Now(), f.metrics, f.Coeff)
	if added == 0 {
		return
	}
	if c, err := f.recal.Refit(f.Coeff); err == nil {
		f.Coeff = c
	}
}

// Recalibrator returns the active recalibrator (nil when disabled).
func (f *Facility) Recalibrator() *align.Recalibrator { return f.recal }
