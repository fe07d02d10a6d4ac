package align

import (
	"math"
	"testing"

	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// closeEnough is the tight relative tolerance the fast paths must hold on
// benign (physically plausible) inputs: rounding noise from reassociating a
// window sum, nothing more.
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestCorrelationCurveFastMatchesReference replays the fuzz corpus seeds
// (same massaging as the fuzz harness) plus realistic synthetic alignment
// scenarios through both curve implementations, asserting point-for-point
// agreement within tight tolerance and an identical EstimateDelay outcome.
func TestCorrelationCurveFastMatchesReference(t *testing.T) {
	cases := make([]curveFuzzCase, 0, len(curveCorpusSeeds)+2)
	for _, s := range curveCorpusSeeds {
		cases = append(cases, massageCurveInputs(s.data, s.meterIv, s.modelIv, s.step, s.minD, s.maxD, s.idleW))
	}
	// Chip-meter-shaped: fine meter windows, small lag range.
	mpFine, fine := synthSeries(3000, sim.Millisecond, 7*sim.Millisecond, 20, 1)
	cases = append(cases, curveFuzzCase{
		measured: fine, modelPower: mpFine, idleW: 20,
		meterIv: sim.Millisecond, modelIv: sim.Millisecond,
		step: sim.Millisecond, minD: -50 * sim.Millisecond, maxD: 50 * sim.Millisecond,
	})
	// Wattsup-shaped: coarse meter windows over fine model buckets — the
	// configuration where the window loop used to dominate.
	mpCoarse, coarse := synthSeries(30000, sim.Second, 1200*sim.Millisecond, 150, 2)
	cases = append(cases, curveFuzzCase{
		measured: coarse, modelPower: mpCoarse, idleW: 150,
		meterIv: sim.Second, modelIv: sim.Millisecond,
		step: 5 * sim.Millisecond, minD: 0, maxD: 2 * sim.Second,
	})

	for ci, c := range cases {
		fast := CorrelationCurve(c.measured, c.idleW, c.meterIv, c.modelPower, c.modelIv, c.step, c.minD, c.maxD)
		ref := correlationCurveRef(c.measured, c.idleW, c.meterIv, c.modelPower, c.modelIv, c.step, c.minD, c.maxD)
		if len(fast) != len(ref) {
			t.Fatalf("case %d: fast curve has %d points, reference %d", ci, len(fast), len(ref))
		}
		for i := range ref {
			if fast[i].Delay != ref[i].Delay {
				t.Fatalf("case %d point %d: lag %d vs %d", ci, i, fast[i].Delay, ref[i].Delay)
			}
			if !closeEnough(fast[i].Normalized, ref[i].Normalized) {
				t.Fatalf("case %d delay %d: normalized %v vs %v", ci, ref[i].Delay, fast[i].Normalized, ref[i].Normalized)
			}
		}
		dFast, errFast := EstimateDelay(fast)
		dRef, errRef := EstimateDelay(ref)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("case %d: estimate outcome diverged: fast err %v, ref err %v", ci, errFast, errRef)
		}
		if errRef == nil && dFast != dRef {
			t.Fatalf("case %d: estimated delay %s (fast) vs %s (ref)", ci, sim.FormatTime(dFast), sim.FormatTime(dRef))
		}
	}
}

// TestEstimateDelayTieBreak pins the documented tie-breaking contract: among
// equal normalized peaks, the earliest lag in curve order wins.
func TestEstimateDelayTieBreak(t *testing.T) {
	plateau := []LagPoint{
		{Delay: 0, Normalized: 0.5},
		{Delay: 1, Normalized: 0.9},
		{Delay: 2, Normalized: 0.9},
		{Delay: 3, Normalized: 0.9},
		{Delay: 4, Normalized: 0.2},
	}
	d, err := EstimateDelay(plateau)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("plateau resolved to delay %d, want leading edge 1", d)
	}
	// The first point itself can be the incumbent peak.
	leading := []LagPoint{
		{Delay: 10, Normalized: 0.7},
		{Delay: 11, Normalized: 0.7},
	}
	if d, err := EstimateDelay(leading); err != nil || d != 10 {
		t.Fatalf("leading plateau: delay %d err %v, want 10", d, err)
	}
}

// incrementalMeter serves synthetic samples like fakeMeter but counts Read
// calls so tests can confirm the SinceReader path is NOT taken (fakeMeter
// does not implement it — the fallback must keep working).
type incrementalMeter struct {
	fakeMeter
	reads int
}

func (m *incrementalMeter) Read(now sim.Time) []power.Sample {
	m.reads++
	return m.fakeMeter.Read(now)
}

// buildRecalibScenario reproduces the TestRecalibratorLearnsShiftedModel
// setup: a metric series, meter samples from a shifted truth model, and a
// small offline block.
func buildRecalibScenario(t *testing.T) (*model.MetricSeries, []power.Sample, []model.CalSample) {
	t.Helper()
	ms := model.NewMetricSeries()
	rng := sim.NewRand(5)
	const delay = 10 * sim.Millisecond
	for b := sim.Time(0); b < 4000; b++ {
		m := model.Metrics{Core: 2 + rng.Float64(), Ins: rng.Float64() * 3, Mem: rng.Float64() * 0.02}
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, m)
	}
	var samples []power.Sample
	for w := sim.Time(0); w < 400; w++ {
		lo, hi := int(w*10), int((w+1)*10)
		m := ms.WindowMean(lo, hi)
		truth := 8*m.Core + 1*m.Ins + 500*m.Mem
		samples = append(samples, power.Sample{
			Start:   w * 10 * sim.Millisecond,
			Arrival: (w+1)*10*sim.Millisecond + delay,
			Watts:   truth + 30 + rng.NormFloat64(0.2),
		})
	}
	var offline []model.CalSample
	for i := 0; i < 4; i++ {
		m := model.Metrics{Core: float64(i + 1), Ins: float64(i)}
		offline = append(offline, model.CalSample{
			M: m, MachineActiveW: 8*m.Core + m.Ins, PkgActiveW: math.NaN(),
		})
	}
	return ms, samples, offline
}

// coeffFields enumerates a Coefficients value for tolerance comparison.
func coeffFields(c model.Coefficients) map[string]float64 {
	return map[string]float64{
		"core": c.Core, "ins": c.Ins, "float": c.Float, "cache": c.Cache,
		"mem": c.Mem, "chip": c.Chip, "disk": c.Disk, "net": c.Net,
	}
}

// TestRecalibratorIncrementalMatchesBatch streams samples through a
// recalibrator with a small online window, so the incremental Gram sees
// adds, eviction downdates, and an exact rebuild. After every refit the result must match a from-scratch batch
// fit over offline+online — exactly before the first eviction, and within
// rounding-level tolerance after downdates.
func TestRecalibratorIncrementalMatchesBatch(t *testing.T) {
	ms, samples, offline := buildRecalibScenario(t)
	base := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}
	meter := &incrementalMeter{fakeMeter: fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}}
	r := NewRecalibrator(meter, model.ScopeMachine, offline)
	r.MaxDelay = 100 * sim.Millisecond
	r.MaxOnline = 64

	refits := 0
	totalAdded := 0
	current := base
	for now := 250 * sim.Millisecond; now <= 5*sim.Second; now += 250 * sim.Millisecond {
		added := r.Ingest(now, ms, current)
		if added == 0 {
			continue
		}
		totalAdded += added
		// Eviction happens inside Ingest the moment the window overflows.
		evicted := totalAdded > r.MaxOnline
		if r.OnlineCount() > r.MaxOnline {
			t.Fatalf("online window %d exceeds MaxOnline %d", r.OnlineCount(), r.MaxOnline)
		}
		got, err := r.Refit(current)
		if err != nil {
			continue
		}
		refits++
		want, err := model.Fit(append(append([]model.CalSample(nil), offline...), r.online.Samples()...), model.FitOptions{
			Scope:            model.ScopeMachine,
			IncludeChipShare: current.IncludesChipShare,
			IdleW:            current.IdleW,
			Base:             current,
		})
		if err != nil {
			t.Fatalf("t=%s: batch reference fit failed: %v", sim.FormatTime(now), err)
		}
		gotF, wantF := coeffFields(got), coeffFields(want)
		for name, w := range wantF {
			g := gotF[name]
			if !evicted {
				if g != w {
					t.Fatalf("t=%s (pre-eviction): %s = %v, batch %v — must be bit-identical", sim.FormatTime(now), name, g, w)
				}
			} else if !closeEnough(g, w) {
				t.Fatalf("t=%s: %s = %v, batch %v — drifted past tolerance", sim.FormatTime(now), name, g, w)
			}
		}
		current = got
	}
	if refits < 5 {
		t.Fatalf("only %d refits exercised", refits)
	}
	if totalAdded <= r.MaxOnline {
		t.Fatal("scenario never filled the online window; eviction path untested")
	}
	if ev := r.online.Evictions(); ev < onlineRebuildEvery {
		t.Fatalf("only %d evictions; the exact rebuild every %d is untested", ev, onlineRebuildEvery)
	}
}

// TestRecalibratorPlanChangeFallsBack refits under a different chip-share
// plan than Ingest accumulated; the recalibrator must rebuild under the
// new plan and produce the batch-fit result exactly.
func TestRecalibratorPlanChangeFallsBack(t *testing.T) {
	ms, samples, offline := buildRecalibScenario(t)
	withChip := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}
	meter := &fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}
	r := NewRecalibrator(meter, model.ScopeMachine, offline)
	r.MaxDelay = 100 * sim.Millisecond
	if r.Ingest(5*sim.Second, ms, withChip) == 0 {
		t.Fatal("no samples ingested")
	}
	// The gram was accumulated with the chip column; refit without it.
	noChip := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: false}
	got, err := r.Refit(noChip)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Fit(append(append([]model.CalSample(nil), offline...), r.online.Samples()...), model.FitOptions{
		Scope: model.ScopeMachine, IncludeChipShare: false, Base: noChip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan-mismatch refit %+v differs from batch %+v", got, want)
	}
}

// TestRecalibratorDropsUnfoldableSample feeds a package-scope recalibrator
// one chip-meter reading that is NaN. The aligned pair it yields cannot be
// folded, so it is not kept; every other pair is, and the refit equals the
// batch fit over the kept samples.
func TestRecalibratorDropsUnfoldableSample(t *testing.T) {
	ms, samples, offline := buildRecalibScenario(t)
	for i := range offline {
		offline[i].PkgActiveW = offline[i].MachineActiveW
	}
	samples[100].Watts = math.NaN()
	const delay = 10 * sim.Millisecond
	meter := &fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}
	r := NewRecalibrator(meter, model.ScopePackage, offline)
	r.SetDelay(delay)
	base := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}

	added := r.Ingest(5*sim.Second, ms, base)
	got, err := r.Refit(base)
	if err != nil {
		t.Fatalf("refit after a NaN reading: %v", err)
	}
	if pairs := len(AlignSamples(nil, samples, meter.idle, meter.interval, ms, delay)); added != pairs-1 {
		t.Fatalf("ingested %d of %d aligned pairs, want all but the NaN one", added, pairs)
	}
	want, err := model.Fit(append(append([]model.CalSample(nil), offline...), r.online.Samples()...), model.FitOptions{
		Scope: model.ScopePackage, IncludeChipShare: true, Base: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("refit %+v differs from batch %+v", got, want)
	}
}
