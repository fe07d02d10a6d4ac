package core

import (
	"math"

	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
)

// Anomaly is one detected power anomaly: a request whose modeled power sits
// far outside the running population — a power virus, accidental or
// malicious (§1, §3.4: "we can pinpoint the sources of power spikes and
// anomalies").
type Anomaly struct {
	// T is detection time; Container the offending request.
	T         sim.Time
	Container *Container
	// PowerW is the request power that triggered detection; BaselineW
	// and SigmaW describe the population at that moment.
	PowerW    float64
	BaselineW float64
	SigmaW    float64
}

// AnomalyDetector watches per-request *intrinsic* power online (modeled
// power excluding the chip-maintenance share, which depends on sibling
// activity rather than the request itself) against a streaming baseline of
// the request population, and flags requests whose mean intrinsic power
// exceeds baseline + Threshold·sigma. Each container is flagged at most
// once.
//
// The detector is a consumer of the facility's sampling stream, not part of
// the attribution path: disabling it changes nothing about accounting.
type AnomalyDetector struct {
	// Threshold is the flagging threshold in standard deviations
	// (default 3).
	Threshold float64
	// MinSamples is the population size required before flagging
	// (default 200 sampling periods).
	MinSamples int
	// MinSigmaW floors the deviation estimate so a perfectly homogeneous
	// population doesn't flag trivial fluctuations (default 0.5 W).
	MinSigmaW float64
	// MinExcessFrac additionally requires the flagged power to exceed
	// the baseline by this relative margin (default 0.25): a power virus
	// is an outlier in absolute terms, not a request at the edge of the
	// normal spread.
	MinExcessFrac float64
	// MinCPUTime is the attributed busy time a request needs before it
	// can be flagged (default 3 ms): flagging on a request's *mean*
	// power over at least a few sampling periods suppresses chip-share
	// transients, e.g. a lone request momentarily carrying the whole
	// maintenance power.
	MinCPUTime sim.Time

	n        int
	mean, m2 float64
	flagged  map[int]bool
	log      []Anomaly
}

// EnableAnomalyDetection attaches a detector to the facility's sampling
// stream and returns it.
func (f *Facility) EnableAnomalyDetection() *AnomalyDetector {
	d := &AnomalyDetector{
		Threshold:     3,
		MinSamples:    200,
		MinSigmaW:     0.5,
		MinExcessFrac: 0.25,
		MinCPUTime:    3 * sim.Millisecond,
		flagged:       map[int]bool{},
	}
	f.anomaly = d
	return d
}

// Anomalies returns the flagged anomalies in detection order.
func (d *AnomalyDetector) Anomalies() []Anomaly {
	return append([]Anomaly(nil), d.log...)
}

// Baseline returns the current population mean and standard deviation.
func (d *AnomalyDetector) Baseline() (mean, sigma float64) {
	if d.n < 2 {
		return d.mean, 0
	}
	return d.mean, math.Sqrt(d.m2 / float64(d.n-1))
}

// observe feeds one sampling period of a request container.
func (d *AnomalyDetector) observe(now sim.Time, cont *Container, powerW float64) {
	if cont.Kind != KindRequest {
		return
	}
	d.n++
	delta := powerW - d.mean
	//pclint:allow floatsafe d.n was incremented above, so the denominator is at least 1
	d.mean += delta / float64(d.n)
	d.m2 += delta * (powerW - d.mean)

	if d.n < d.MinSamples || d.flagged[cont.ID] || cont.CPUTime < d.MinCPUTime {
		return
	}
	_, sigma := d.Baseline()
	if sigma < d.MinSigmaW {
		sigma = d.MinSigmaW
	}
	// Judge the request on its mean intrinsic power over its whole
	// execution so far, not the instantaneous period.
	meanP := cont.MeanIntrinsicPowerW()
	floor := d.mean * (1 + d.MinExcessFrac)
	if meanP > d.mean+d.Threshold*sigma && meanP > floor {
		d.flagged[cont.ID] = true
		d.log = append(d.log, Anomaly{T: now, Container: cont, PowerW: meanP, BaselineW: d.mean, SigmaW: sigma})
	}
}

// hookAnomaly is called from the facility's sampling path.
func (f *Facility) hookAnomaly(t *kernel.Task, powerW float64) {
	if f.anomaly == nil || t == nil {
		return
	}
	f.anomaly.observe(f.K.Now(), f.containerOf(t), powerW)
}
