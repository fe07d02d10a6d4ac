package align

import (
	"math"
	"testing"

	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// synthSeries builds a fluctuating modeled-power series (1 ms buckets) and
// a matching set of meter samples delivered with the given delay.
func synthSeries(nBuckets int, meterInterval, delay sim.Time, idleW float64, seed uint64) ([]float64, []power.Sample) {
	rng := sim.NewRand(seed)
	modelPower := make([]float64, nBuckets)
	for i := range modelPower {
		// Multi-second phases, like real workload load swings, so even
		// coarse one-second meter windows retain the fluctuations.
		phase := float64(i) / 800
		modelPower[i] = 25 + 12*math.Sin(phase) + 5*math.Sin(phase*3.7) + rng.Float64()
	}
	var samples []power.Sample
	per := int(meterInterval / sim.Millisecond)
	for w := 0; (w+1)*per <= nBuckets; w++ {
		var sum float64
		for b := w * per; b < (w+1)*per; b++ {
			sum += modelPower[b]
		}
		start := sim.Time(w) * meterInterval
		samples = append(samples, power.Sample{
			Start:   start,
			Arrival: start + meterInterval + delay,
			Watts:   sum/float64(per) + idleW + rng.NormFloat64(0.3),
		})
	}
	return modelPower, samples
}

func TestEstimateDelayFineMeter(t *testing.T) {
	const trueDelay = 7 * sim.Millisecond
	modelPower, samples := synthSeries(3000, sim.Millisecond, trueDelay, 20, 1)
	curve := CorrelationCurve(samples, 20, sim.Millisecond, modelPower, sim.Millisecond,
		sim.Millisecond, -50*sim.Millisecond, 50*sim.Millisecond)
	got, err := EstimateDelay(curve)
	if err != nil {
		t.Fatal(err)
	}
	if got != trueDelay {
		t.Fatalf("estimated delay %s, want %s", sim.FormatTime(got), sim.FormatTime(trueDelay))
	}
}

func TestEstimateDelayCoarseMeter(t *testing.T) {
	// Wattsup-style: 1 s windows, 1.2 s delay, sub-window resolution.
	const trueDelay = 1200 * sim.Millisecond
	modelPower, samples := synthSeries(30000, sim.Second, trueDelay, 150, 2)
	curve := CorrelationCurve(samples, 150, sim.Second, modelPower, sim.Millisecond,
		5*sim.Millisecond, 0, 2*sim.Second)
	got, err := EstimateDelay(curve)
	if err != nil {
		t.Fatal(err)
	}
	if got < trueDelay-50*sim.Millisecond || got > trueDelay+50*sim.Millisecond {
		t.Fatalf("estimated delay %s, want ≈%s", sim.FormatTime(got), sim.FormatTime(trueDelay))
	}
}

func TestEstimateDelayErrors(t *testing.T) {
	if _, err := EstimateDelay(nil); err == nil {
		t.Fatal("empty curve accepted")
	}
	flat := []LagPoint{{Delay: 0, Normalized: 0}, {Delay: 1, Normalized: -0.5}}
	if _, err := EstimateDelay(flat); err == nil {
		t.Fatal("no positive peak accepted")
	}
}

func TestAlignSamplesReconstructsWindows(t *testing.T) {
	ms := model.NewMetricSeries()
	for b := sim.Time(0); b < 100; b++ {
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, model.Metrics{Core: float64(b)})
	}
	const delay = 5 * sim.Millisecond
	samples := []power.Sample{
		{Arrival: 15*sim.Millisecond + delay, Watts: 42 + 10}, // window [5,15)
		{Arrival: 200 * sim.Millisecond, Watts: 99},           // beyond series → skipped
	}
	pairs := AlignSamples(nil, samples, 10, 10*sim.Millisecond, ms, delay)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	p := pairs[0]
	if math.Abs(p.ActiveW-42) > 1e-9 {
		t.Fatalf("active = %g, want 42", p.ActiveW)
	}
	// Mean of Core over buckets 5..14 = 9.5.
	if math.Abs(p.M.Core-9.5) > 1e-9 {
		t.Fatalf("aligned metrics Core = %g, want 9.5", p.M.Core)
	}
}

// fakeMeter serves pre-built samples.
type fakeMeter struct {
	samples  []power.Sample
	interval sim.Time
	idle     float64
}

func (f *fakeMeter) Name() string       { return "fake" }
func (f *fakeMeter) Interval() sim.Time { return f.interval }
func (f *fakeMeter) Delay() sim.Time    { return 0 }
func (f *fakeMeter) Scope() power.Scope { return power.ScopeMachine }
func (f *fakeMeter) IdleW() float64     { return f.idle }
func (f *fakeMeter) Read(now sim.Time) []power.Sample {
	var out []power.Sample
	for _, s := range f.samples {
		if s.Arrival <= now {
			out = append(out, s)
		}
	}
	return out
}

func TestRecalibratorLearnsShiftedModel(t *testing.T) {
	// Offline model underestimates (hidden synergy): online samples from
	// the production workload must pull the fit toward truth.
	offline := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}
	truthMem := 500.0

	ms := model.NewMetricSeries()
	rng := sim.NewRand(5)
	var samples []power.Sample
	const delay = 10 * sim.Millisecond
	for b := sim.Time(0); b < 4000; b++ {
		m := model.Metrics{Core: 2 + rng.Float64(), Ins: rng.Float64() * 3, Mem: rng.Float64() * 0.02}
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, m)
	}
	for w := sim.Time(0); w < 400; w++ {
		lo, hi := int(w*10), int((w+1)*10)
		m := ms.WindowMean(lo, hi)
		truth := 8*m.Core + 1*m.Ins + truthMem*m.Mem
		samples = append(samples, power.Sample{
			Start:   w * 10 * sim.Millisecond,
			Arrival: (w+1)*10*sim.Millisecond + delay,
			Watts:   truth + 30 + rng.NormFloat64(0.2),
		})
	}
	meter := &fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}

	var offlineSamples []model.CalSample
	// A couple of offline points with zero mem activity: they cannot
	// teach the mem coefficient.
	for i := 0; i < 4; i++ {
		m := model.Metrics{Core: float64(i + 1), Ins: float64(i)}
		offlineSamples = append(offlineSamples, model.CalSample{
			M: m, MachineActiveW: 8*m.Core + m.Ins, PkgActiveW: math.NaN(),
		})
	}
	r := NewRecalibrator(meter, model.ScopeMachine, offlineSamples)
	r.MaxDelay = 100 * sim.Millisecond

	added := r.Ingest(5*sim.Second, ms, offline)
	if added == 0 {
		t.Fatal("no online samples ingested")
	}
	d, known := r.Delay()
	if !known || d != delay {
		t.Fatalf("estimated delay %v (known=%v), want %v", d, known, delay)
	}
	got, err := r.Refit(offline)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mem-truthMem) > 30 {
		t.Fatalf("refit mem coefficient %g, want ≈%g", got.Mem, truthMem)
	}
	if r.Refits() != 1 {
		t.Fatalf("refits = %d", r.Refits())
	}
	// Second ingest with no new samples is a no-op.
	if n := r.Ingest(5*sim.Second, ms, got); n != 0 {
		t.Fatalf("re-ingest added %d", n)
	}
}

func TestRecalibratorRefusesWithoutSamples(t *testing.T) {
	meter := &fakeMeter{interval: sim.Second}
	r := NewRecalibrator(meter, model.ScopeMachine, nil)
	base := model.Coefficients{Core: 1}
	got, err := r.Refit(base)
	if err == nil {
		t.Fatal("refit without samples succeeded")
	}
	if got != base {
		t.Fatal("failed refit must return base")
	}
}

func TestRecalibratorSetDelaySkipsEstimation(t *testing.T) {
	ms := model.NewMetricSeries()
	for b := sim.Time(0); b < 100; b++ {
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, model.Metrics{Core: 1})
	}
	meter := &fakeMeter{
		interval: 10 * sim.Millisecond,
		samples: []power.Sample{
			{Arrival: 30 * sim.Millisecond, Watts: 8},
		},
	}
	r := NewRecalibrator(meter, model.ScopeMachine, nil)
	r.SetDelay(20 * sim.Millisecond)
	if n := r.Ingest(sim.Second, ms, model.Coefficients{Core: 8}); n != 1 {
		t.Fatalf("ingest with fixed delay added %d, want 1", n)
	}
}
