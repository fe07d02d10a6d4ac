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
// series and refits the model over offline + online samples every
// DefaultRecalibrationPeriod. The returned recalibrator exposes the
// estimated delay and refit statistics.
//
// The periodic event reschedules itself forever; drive the engine with
// RunUntil rather than Run.
func (f *Facility) EnableRecalibration(meter power.Meter, scope model.FitScope, offline []model.CalSample) *align.Recalibrator {
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
		f.K.Eng.After(DefaultRecalibrationPeriod, tick)
	}
	f.K.Eng.After(DefaultRecalibrationPeriod, tick)
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
