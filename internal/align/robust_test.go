package align

import (
	"math"
	"testing"

	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

type recalAuditLog struct {
	rejects   int
	badReject bool
	fallbacks []string
}

func (l *recalAuditLog) Observe(e sim.Event) {
	switch e.Kind {
	case sim.KindRecalReject:
		l.rejects++
		if deviationW, thresholdW := e.X, e.Y; !(thresholdW > 0) || math.Abs(deviationW) <= thresholdW {
			l.badReject = true
		}
	case sim.KindRecalFallback:
		l.fallbacks = append(l.fallbacks, e.Detail)
	}
}

// spikedWorld builds the TestRecalibratorLearnsShiftedModel scenario — a
// hidden Mem≈500 coefficient the online samples must teach — with every
// spikeEvery-th meter sample multiplied by 6 (injected outliers).
func spikedWorld(spikeEvery int) (*model.MetricSeries, *fakeMeter, []model.CalSample, model.Coefficients) {
	offline := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}
	const truthMem = 500.0
	const delay = 10 * sim.Millisecond

	ms := model.NewMetricSeries()
	rng := sim.NewRand(5)
	for b := sim.Time(0); b < 4000; b++ {
		m := model.Metrics{Core: 2 + rng.Float64(), Ins: rng.Float64() * 3, Mem: rng.Float64() * 0.02}
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, m)
	}
	var samples []power.Sample
	for w := sim.Time(0); w < 400; w++ {
		lo, hi := int(w*10), int((w+1)*10)
		m := ms.WindowMean(lo, hi)
		truth := 8*m.Core + 1*m.Ins + truthMem*m.Mem
		watts := truth + 30 + rng.NormFloat64(0.2)
		if spikeEvery > 0 && int(w)%spikeEvery == 7 {
			watts *= 6
		}
		samples = append(samples, power.Sample{
			Start:   w * 10 * sim.Millisecond,
			Arrival: (w+1)*10*sim.Millisecond + delay,
			Watts:   watts,
		})
	}
	meter := &fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}

	var offlineSamples []model.CalSample
	for i := 0; i < 4; i++ {
		m := model.Metrics{Core: float64(i + 1), Ins: float64(i)}
		offlineSamples = append(offlineSamples, model.CalSample{
			M: m, MachineActiveW: 8*m.Core + m.Ins, PkgActiveW: math.NaN(),
		})
	}
	return ms, meter, offlineSamples, offline
}

// TestRobustRejectsPlantedOutliers: MAD rejection discards injected spikes
// so the refit still converges near the hidden truth, while the non-robust
// recalibrator over the same corrupted stream is pulled visibly away. The
// sanity gate is opened wide (MaxShift) so the test isolates the rejection
// stage — the two degradation responses are individually ablatable.
func TestRobustRejectsPlantedOutliers(t *testing.T) {
	const truthMem = 500.0
	fit := func(robust bool) (model.Coefficients, *Recalibrator, *recalAuditLog) {
		ms, meter, offlineSamples, offline := spikedWorld(15)
		r := NewRecalibrator(meter, model.ScopeMachine, offlineSamples)
		r.MaxDelay = 100 * sim.Millisecond
		// Pin the true delay: spiked samples also skew cross-correlation
		// delay estimation, and this test isolates the rejection stage.
		r.SetDelay(10 * sim.Millisecond)
		log := &recalAuditLog{}
		if robust {
			r.Robust = Robust{Enabled: true, MaxShift: 1e9}
			r.Observer = log
		}
		if added := r.Ingest(5*sim.Second, ms, offline); added == 0 {
			t.Fatal("no online samples ingested")
		}
		c, err := r.Refit(offline)
		if err != nil {
			t.Fatal(err)
		}
		return c, r, log
	}

	robustC, rr, log := fit(true)
	naiveC, rn, _ := fit(false)

	if rr.Rejected() == 0 || log.rejects != rr.Rejected() {
		t.Fatalf("robust path rejected %d pairs but audited %d", rr.Rejected(), log.rejects)
	}
	if log.badReject {
		t.Fatal("audit saw a rejection whose deviation did not exceed its threshold")
	}
	if rn.Rejected() != 0 {
		t.Fatalf("non-robust path rejected %d pairs", rn.Rejected())
	}
	robustErr := math.Abs(robustC.Mem - truthMem)
	naiveErr := math.Abs(naiveC.Mem - truthMem)
	if robustErr > 50 {
		t.Fatalf("robust refit mem = %g, want ≈%g", robustC.Mem, truthMem)
	}
	if naiveErr <= robustErr {
		t.Fatalf("outliers did not hurt the naive fit (robust err %g, naive err %g) — test lost its teeth",
			robustErr, naiveErr)
	}
}

func TestRejectOutliersDegenerateBatches(t *testing.T) {
	r := NewRecalibrator(&fakeMeter{interval: sim.Second}, model.ScopeMachine, nil)
	r.Robust = Robust{Enabled: true}
	cur := model.Coefficients{}
	small := []AlignedPair{{ActiveW: 1}, {ActiveW: 100}, {ActiveW: 1}}
	if got := r.rejectOutliers(0, small, cur); len(got) != len(small) {
		t.Fatalf("batch below MinPairs was filtered: %d of %d", len(got), len(small))
	}
	identical := make([]AlignedPair, 20)
	for i := range identical {
		identical[i] = AlignedPair{ActiveW: 7}
	}
	if got := r.rejectOutliers(0, identical, cur); len(got) != len(identical) {
		t.Fatalf("zero-MAD batch was filtered: %d of %d", len(got), len(identical))
	}
	if r.Rejected() != 0 {
		t.Fatalf("degenerate batches counted rejections: %d", r.Rejected())
	}
}

// TestRobustRefitFallback: when the online window drags the fit far from
// the offline base (relative shift beyond MaxShift), the sanity gate
// replaces the refit with the offline-only fit and audits the fallback.
func TestRobustRefitFallback(t *testing.T) {
	ms, meter, offlineSamples, offline := spikedWorld(0) // clean stream
	r := NewRecalibrator(meter, model.ScopeMachine, offlineSamples)
	r.MaxDelay = 100 * sim.Millisecond
	log := &recalAuditLog{}
	r.Robust = Robust{Enabled: true} // default MaxShift 3
	r.Observer = log
	if added := r.Ingest(5*sim.Second, ms, offline); added == 0 {
		t.Fatal("no online samples ingested")
	}
	// The legitimate refit learns Mem≈500 — an enormous relative shift
	// from the offline base (Core 8, Ins 1), so the gate must engage.
	c, err := r.Refit(offline)
	if err != nil {
		t.Fatal(err)
	}
	if r.Fallbacks() != 1 || len(log.fallbacks) != 1 {
		t.Fatalf("fallbacks = %d, audited %d", r.Fallbacks(), len(log.fallbacks))
	}
	if math.Abs(c.Mem) > 1 {
		t.Fatalf("gated refit returned mem=%g, want the offline fit (≈0)", c.Mem)
	}
	// Widening the gate lets the same window through.
	r2 := NewRecalibrator(meter, model.ScopeMachine, offlineSamples)
	r2.MaxDelay = 100 * sim.Millisecond
	r2.Robust = Robust{Enabled: true, MaxShift: 1e9}
	ms2, meter2, _, _ := spikedWorld(0)
	r2.Meter = meter2
	if added := r2.Ingest(5*sim.Second, ms2, offline); added == 0 {
		t.Fatal("no online samples ingested (wide gate)")
	}
	c2, err := r2.Refit(offline)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c2.Mem-500) > 50 {
		t.Fatalf("wide-gate refit mem = %g, want ≈500", c2.Mem)
	}
	if r2.Fallbacks() != 0 {
		t.Fatalf("wide gate still fell back %d times", r2.Fallbacks())
	}
}
