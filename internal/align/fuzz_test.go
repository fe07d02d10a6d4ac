package align

import (
	"math"
	"testing"

	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// curveFuzzCase is one massaged CorrelationCurve input set, shared between
// the fuzz target and the fast-vs-reference property test (which replays
// the corpus seeds below through the same massaging).
type curveFuzzCase struct {
	measured   []power.Sample
	modelPower []float64
	idleW      float64
	meterIv    sim.Time
	modelIv    sim.Time
	step       sim.Time
	minD, maxD sim.Time
}

// curveCorpusSeeds are the f.Add tuples of FuzzCrossCorrelation, exported to
// the property tests so corpus coverage and fast-path agreement checks stay
// in lockstep.
var curveCorpusSeeds = []struct {
	data                               []byte
	meterIv, modelIv, step, minD, maxD int64
	idleW                              float64
}{
	{[]byte{10, 50, 20, 90, 30, 10, 40, 70}, int64(sim.Second), int64(sim.Millisecond),
		int64(sim.Millisecond), 0, int64(100 * sim.Millisecond), 10.0},
	// Degenerate intervals: used to loop forever / divide by zero.
	{[]byte{1, 2, 3}, int64(sim.Second), 0, 0, -5, 5, 0.0},
	{[]byte{}, 0, -3, 1, 0, 0, 0.0},
	// Extreme lag range: the loop increment must not overflow.
	{[]byte{255, 0, 128, 7}, int64(sim.Second), int64(sim.Millisecond),
		math.MaxInt64 / 2, math.MinInt64 / 4, math.MaxInt64 / 4, -2.5},
}

// massageCurveInputs applies the fuzz harness's clamping and decoding to raw
// fuzz inputs, producing a bounded CorrelationCurve call.
func massageCurveInputs(data []byte, meterIv, modelIv, step, minD, maxD int64, idleW float64) curveFuzzCase {
	if math.IsNaN(idleW) || math.IsInf(idleW, 0) {
		idleW = 0
	}
	const limT = int64(1e15)
	clamp := func(v, lim int64) int64 {
		if v > lim || v < -lim {
			return v % lim
		}
		return v
	}
	minD = clamp(minD, limT)
	maxD = clamp(maxD, limT)
	meterIv = clamp(meterIv, int64(10*sim.Second))
	modelIv = clamp(modelIv, int64(10*sim.Second))
	step = clamp(step, int64(10*sim.Second))
	// Keep the curve small for fuzzing throughput: force the step to
	// cover the lag range in at most 1024 hops (zero/negative steps
	// stay as-is to exercise the library's own guards).
	if maxD > minD {
		minStep := (maxD - minD) / 1024
		if step > 0 && step < minStep {
			step = minStep
		}
		if step <= 0 && modelIv > 0 && modelIv < minStep {
			step = minStep
		}
	}

	var measured []power.Sample
	arrival := int64(0)
	for i := 0; i+1 < len(data) && len(measured) < 64; i += 2 {
		arrival += int64(data[i])*int64(sim.Millisecond) + 1
		measured = append(measured, power.Sample{
			Arrival: arrival,
			Watts:   float64(int8(data[i+1])),
		})
	}
	modelPower := make([]float64, 0, 256)
	for i := 0; i < len(data) && i < 256; i++ {
		modelPower = append(modelPower, float64(int8(data[i])))
	}
	return curveFuzzCase{
		measured: measured, modelPower: modelPower, idleW: idleW,
		meterIv: meterIv, modelIv: modelIv, step: step, minD: minD, maxD: maxD,
	}
}

// FuzzCrossCorrelation drives CorrelationCurve and EstimateDelay with
// arbitrary finite sample sets and degenerate interval/step/delay
// combinations, exercising both the prefix-sum fast path and the reference
// implementation. The harness asserts the properties the recalibration
// pipeline depends on: the calls terminate (no zero-step or overflow
// loops), never panic or divide by zero, every normalized correlation stays
// within [-1, 1], and the two paths agree on curve structure (length and
// lag grid — value agreement on benign inputs is the property tests' job,
// since adversarial magnitudes can amplify reassociation noise without
// bound).
func FuzzCrossCorrelation(f *testing.F) {
	for _, s := range curveCorpusSeeds {
		f.Add(s.data, s.meterIv, s.modelIv, s.step, s.minD, s.maxD, s.idleW)
	}
	f.Fuzz(func(t *testing.T, data []byte, meterIv, modelIv, step, minD, maxD int64, idleW float64) {
		c := massageCurveInputs(data, meterIv, modelIv, step, minD, maxD, idleW)

		curve := CorrelationCurve(c.measured, c.idleW, c.meterIv, c.modelPower, c.modelIv, c.step, c.minD, c.maxD)
		ref := correlationCurveRef(c.measured, c.idleW, c.meterIv, c.modelPower, c.modelIv, c.step, c.minD, c.maxD)
		if len(curve) > 1030 {
			t.Fatalf("curve has %d points, expected at most ~1025", len(curve))
		}
		if len(curve) != len(ref) {
			t.Fatalf("fast curve has %d points, reference %d", len(curve), len(ref))
		}
		for which, cv := range [][]LagPoint{curve, ref} {
			for i, p := range cv {
				if math.IsNaN(p.Normalized) || p.Normalized < -1-1e-9 || p.Normalized > 1+1e-9 {
					t.Fatalf("path %d: normalized correlation %v outside [-1, 1] at delay %d", which, p.Normalized, p.Delay)
				}
				if p.Delay < c.minD || p.Delay > c.maxD {
					t.Fatalf("path %d: curve point at delay %d outside [%d, %d]", which, p.Delay, c.minD, c.maxD)
				}
				if p.Delay != ref[i].Delay {
					t.Fatalf("lag grids diverge at %d: fast %d vs ref %d", i, curve[i].Delay, ref[i].Delay)
				}
			}
		}
		if d, err := EstimateDelay(curve); err == nil {
			if d < c.minD || d > c.maxD {
				t.Fatalf("estimated delay %d outside scanned range [%d, %d]", d, c.minD, c.maxD)
			}
		}
	})
}
