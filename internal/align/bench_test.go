package align

import (
	"fmt"
	"testing"

	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// benchCurveInputs builds a Wattsup-shaped alignment problem: nSamples
// coarse meter windows (100 ms) over a 1 ms modeled-power grid, scanned over
// a 201-lag delay range — the shape where the reference implementation's
// per-lag window loop dominates.
func benchCurveInputs(nSamples int) ([]power.Sample, []float64) {
	const meterInterval = 100 * sim.Millisecond
	perWindow := int(meterInterval / sim.Millisecond)
	modelPower, samples := synthSeries(nSamples*perWindow, meterInterval, 30*sim.Millisecond, 50, 9)
	return samples, modelPower
}

func benchmarkCurve(b *testing.B, nSamples int, curve func([]power.Sample, float64, sim.Time, []float64, sim.Time, sim.Time, sim.Time, sim.Time) []LagPoint) {
	samples, modelPower := benchCurveInputs(nSamples)
	if len(samples) < nSamples {
		b.Fatalf("only %d samples built", len(samples))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := curve(samples, 50, 100*sim.Millisecond, modelPower, sim.Millisecond,
			sim.Millisecond, 0, 200*sim.Millisecond)
		if len(c) != 201 {
			b.Fatalf("curve has %d points", len(c))
		}
	}
}

// BenchmarkCorrelationCurve compares the prefix-sum fast path against the
// retained reference implementation at the acceptance sizes.
func BenchmarkCorrelationCurve(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("path=ref/samples=%d", n), func(b *testing.B) {
			benchmarkCurve(b, n, correlationCurveRef)
		})
		b.Run(fmt.Sprintf("path=fast/samples=%d", n), func(b *testing.B) {
			benchmarkCurve(b, n, CorrelationCurve)
		})
	}
}

// benchRecalibrator returns a recalibrator loaded with MaxOnline online
// samples over a realistic offline block, ready to refit, along with that
// offline block.
func benchRecalibrator(b *testing.B) (*Recalibrator, []model.CalSample, model.Coefficients) {
	b.Helper()
	ms := model.NewMetricSeries(sim.Millisecond)
	rng := sim.NewRand(5)
	const nBuckets = 50000
	for bkt := sim.Time(0); bkt < nBuckets; bkt++ {
		m := model.Metrics{
			Core: 2 + rng.Float64(), Ins: rng.Float64() * 3,
			Mem: rng.Float64() * 0.02, Disk: rng.Float64() * 0.3, Net: rng.Float64() * 0.2,
		}
		ms.AddSpread(bkt*sim.Millisecond, (bkt+1)*sim.Millisecond, m)
	}
	var samples []power.Sample
	for w := sim.Time(0); w < nBuckets/10; w++ {
		lo, hi := int(w*10), int((w+1)*10)
		m := ms.WindowMean(lo, hi)
		truth := 8*m.Core + 1*m.Ins + 500*m.Mem + 3*m.Disk + 5*m.Net
		samples = append(samples, power.Sample{
			Start:   w * 10 * sim.Millisecond,
			Arrival: (w+1)*10*sim.Millisecond + 10*sim.Millisecond,
			Watts:   truth + 30 + rng.NormFloat64(0.2),
		})
	}
	var offline []model.CalSample
	for i := 0; i < 32; i++ {
		m := model.Metrics{Core: float64(i%5 + 1), Ins: float64(i % 3), Disk: float64(i%2) * 0.5}
		offline = append(offline, model.CalSample{M: m, MachineActiveW: 8*m.Core + m.Ins + 3*m.Disk})
	}
	base := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}
	meter := &fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}
	r := NewRecalibrator(meter, model.ScopeMachine, offline)
	r.MaxDelay = 100 * sim.Millisecond
	if r.Ingest(sim.Time(nBuckets)*sim.Millisecond, ms, base) == 0 {
		b.Fatal("no samples ingested")
	}
	if r.OnlineCount() != r.MaxOnline {
		b.Fatalf("online window %d, want full %d", r.OnlineCount(), r.MaxOnline)
	}
	return r, offline, base
}

// BenchmarkRefit compares the incremental refit (solve-only) against a
// batch model.Fit over the same samples: 32 offline + 4000 online samples,
// 8 coefficients.
func BenchmarkRefit(b *testing.B) {
	r, offline, base := benchRecalibrator(b)
	b.Run("path=ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			all := append(append([]model.CalSample(nil), offline...), r.online.Samples()...)
			if _, err := model.Fit(all, r.fitOptions(base)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path=fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Refit(base); err != nil {
				b.Fatal(err)
			}
		}
	})
}
