package stream_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// testbed is one deployed machine + workload, the shared setup of the
// batch and streaming arms. Both arms must execute the identical event
// schedule; only the driving (one RunUntil vs tick-by-tick consumption)
// differs.
type testbed struct {
	m   *experiments.Machine
	gen *server.LoadGen
	t1  sim.Time // load stops here; runs are driven to t1+3s
}

const (
	equivWarmup = 2 * sim.Second
	equivWindow = 4 * sim.Second
)

// deployBed deploys wl on a SandyBridge machine through the experiments
// rig, with open-loop arrivals at rateFrac of peak until t1, without
// executing the run.
func deployBed(t testing.TB, approach core.Approach, seed uint64, wl workload.Workload, rateFrac float64) testbed {
	t.Helper()
	m, err := experiments.Exec{}.NewMachine(cpu.SandyBridge, approach, seed)
	if err != nil {
		t.Fatal(err)
	}
	rig := m.Deploy(wl)
	t1 := equivWarmup + equivWindow
	rig.DriveFrac(rateFrac, t1)
	return testbed{m: m, gen: rig.Gen, t1: t1}
}

func (b testbed) end() sim.Time { return b.t1 + 3*sim.Second }

// meterFor selects the stream engine's measured tap.
func meterFor(b testbed, which string) (power.Meter, model.FitScope) {
	switch which {
	case "chip":
		return b.m.Chip, model.ScopePackage
	case "wattsup":
		return b.m.Wattsup, model.ScopeMachine
	default:
		return nil, model.ScopeMachine
	}
}

// containerDigest canonically encodes every container's full attribution
// state and hashes it: equal digests mean bit-identical attribution.
func containerDigest(fac *core.Facility) string {
	h := sha256.New()
	buf := make([]byte, 0, 256)
	for i := 0; i < fac.NumContainers(); i++ {
		c := fac.ContainerAt(i)
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(c.ID), 10)
		buf = append(buf, ',')
		buf = append(buf, c.Label...)
		buf = append(buf, ',')
		buf = append(buf, c.Client...)
		buf = strconv.AppendInt(append(buf, ','), int64(c.CPUTime), 10)
		buf = strconv.AppendFloat(append(buf, ','), c.CPUEnergyJ, 'g', -1, 64)
		buf = strconv.AppendFloat(append(buf, ','), c.ChipEnergyJ, 'g', -1, 64)
		buf = strconv.AppendFloat(append(buf, ','), c.DeviceEnergyJ, 'g', -1, 64)
		if c.Released {
			buf = append(buf, ",r"...)
		}
		buf = append(buf, '\n')
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamMatchesBatch is the batch-equivalence property harness: for
// seeded deterministic traces varying attribution approach, workload
// (container population), load level, streaming tick (sample rate), and
// the engine's measured tap (meter delay: 1ms chip vs 1.2s wattsup), the
// streaming engine's attribution must be bit-identical to the batch path
// — a single RunUntil over the identical machine, whose metric series
// nothing trims. Under recalibration the tick must sit on the
// recalibration grid (see the package comment); without it any tick is
// exact. The drift refit additionally reproduces a
// batch fit over its retained window bit-for-bit until the first
// eviction, and within 1e-9 after.
func TestStreamMatchesBatch(t *testing.T) {
	cases := []struct {
		name     string
		approach core.Approach
		wl       workload.Workload
		rate     float64
		tick     sim.Time
		meter    string
		seed     uint64
	}{
		{"recal-aligned-chip", core.ApproachRecalibrated, workload.Stress{}, 0.5, 100 * sim.Millisecond, "chip", 21},
		{"recal-2x-tick-wattsup", core.ApproachRecalibrated, workload.GAE{}, 0.4, 200 * sim.Millisecond, "wattsup", 22},
		{"chipshare-offgrid-tick", core.ApproachChipShare, workload.Stress{}, 0.6, 30 * sim.Millisecond, "chip", 23},
		{"coreonly-no-meter", core.ApproachCoreOnly, workload.Stress{}, 0.5, 100 * sim.Millisecond, "", 24},
		{"chipshare-slow-meter", core.ApproachChipShare, workload.GAE{}, 0.3, 500 * sim.Millisecond, "wattsup", 25},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Batch arm: one uninterrupted run to the horizon.
			batch := deployBed(t, tc.approach, tc.seed, tc.wl, tc.rate)
			batch.m.Eng.RunUntil(batch.end())
			wantDigest := containerDigest(batch.m.Fac)

			// Streaming arm: identical machine, tick-by-tick consumption.
			bed := deployBed(t, tc.approach, tc.seed, tc.wl, tc.rate)
			meter, scope := meterFor(bed, tc.meter)
			e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: meter, Scope: scope},
				stream.Config{Tick: tc.tick})
			var col stream.Collector
			e.Sink = &col
			e.RunUntil(bed.end())

			if got := containerDigest(bed.m.Fac); got != wantDigest {
				t.Fatalf("streaming attribution diverged from batch: digest %s vs %s", got, wantDigest)
			}
			if len(col.Records) == 0 {
				t.Fatal("stream emitted no records")
			}
			// The streamed ledger must reconcile with the facility's full
			// accounting (summation order differs, so 1e-9 relative).
			want := bed.m.Fac.TotalAccountedEnergyJ()
			if diff := math.Abs(e.CumAttributedJ() - want); diff > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("streamed ledger %g J vs accounted %g J (diff %g)", e.CumAttributedJ(), want, diff)
			}
			checkDriftWindowEquivalence(t, bed, e, scope)

			// Both arms completed the same requests.
			if bg, sg := len(batch.gen.Completed()), len(bed.gen.Completed()); bg != sg || bg == 0 {
				t.Fatalf("completed requests: batch %d, stream %d", bg, sg)
			}
		})
	}
}

// TestTrimFollowsRecalibrator streams a Westmere machine that
// recalibrates against its 1 s wall meter while the engine itself reads
// no meter, so only the recalibrator's floor keeps the trim frontier
// behind what it aligns: everything buffered before its delay locks, and
// a whole meter interval behind each later arrival. The run must lock,
// refit, and attribute bit-identically to the untrimmed batch run.
func TestTrimFollowsRecalibrator(t *testing.T) {
	const horizon = 16 * sim.Second
	run := func(streamed bool) (*experiments.Machine, string) {
		m, err := experiments.Exec{}.NewMachine(cpu.Westmere, core.ApproachRecalibrated, 27)
		if err != nil {
			t.Fatal(err)
		}
		m.Deploy(workload.GAE{}).DriveFrac(0.4, horizon)
		if streamed {
			stream.New(stream.Sources{Eng: m.Eng, Fac: m.Fac}, stream.Config{}).RunUntil(horizon)
		} else {
			m.Eng.RunUntil(horizon)
		}
		return m, containerDigest(m.Fac)
	}
	batch, want := run(false)
	m, got := run(true)
	if got != want {
		t.Fatalf("trimmed stream attribution diverged from batch: digest %s vs %s", got, want)
	}
	r := m.Fac.Recalibrator()
	if _, ok := r.Delay(); !ok || r.Refits() == 0 {
		t.Fatalf("recalibrator never locked and refit (refits %d)", r.Refits())
	}
	if m.Fac.Coeff != batch.Fac.Coeff {
		t.Fatalf("coefficients %v after the stream, %v after the batch run", m.Fac.Coeff, batch.Fac.Coeff)
	}
	if ms := m.Fac.Metrics(); ms.Retained() >= ms.Len()/2 {
		t.Fatalf("metric series holds %d of %d buckets: the stream did not trim", ms.Retained(), ms.Len())
	}
}

// checkDriftWindowEquivalence pins the stream-level incremental-fit
// property: the engine's windowed drift refit equals a from-scratch batch
// fit over the same retained pairs — bit-identically before any eviction,
// within 1e-9 relative after (Gram Remove residue).
func checkDriftWindowEquivalence(t *testing.T, bed testbed, e *stream.Engine, scope model.FitScope) {
	t.Helper()
	got, ok := e.DriftFit()
	pairs := e.DriftWindow()
	if !ok {
		if len(pairs) >= 64 {
			t.Fatalf("drift fit unavailable despite %d pairs", len(pairs))
		}
		return
	}
	want, err := model.Fit(pairs, model.FitOptions{
		Scope:            scope,
		IncludeChipShare: bed.m.Fac.Coeff.IncludesChipShare,
		IdleW:            got.IdleW,
		Base:             bed.m.Fac.Coeff,
	})
	if err != nil {
		t.Fatalf("batch fit over drift window: %v", err)
	}
	if e.DriftEvictions() == 0 {
		gv, wv := got.Vector(), want.Vector()
		for i := range gv {
			if gv[i] != wv[i] {
				t.Fatalf("pre-eviction drift coefficient %d not bit-identical: %v vs %v", i, gv[i], wv[i])
			}
		}
		return
	}
	// After evictions, Remove residue perturbs the normal equations at
	// rounding level; the solve amplifies it by the conditioning of the
	// normal matrix, so individual coefficients are the wrong scale to
	// bound. The well-conditioned equivalent claim is prediction-space:
	// the incremental fit and the batch fit must model every retained
	// pair's power within 1e-9 relative of each other.
	for i, s := range pairs {
		var gp, wp float64
		if scope == model.ScopeMachine {
			gp, wp = got.Estimate(s.M), want.Estimate(s.M)
		} else {
			gp, wp = got.EstimateCPU(s.M), want.EstimateCPU(s.M)
		}
		if math.Abs(gp-wp) > 1e-9*(1+math.Abs(wp)) {
			t.Fatalf("post-eviction drift prediction for pair %d beyond 1e-9: %v vs %v (evictions=%d)", i, gp, wp, e.DriftEvictions())
		}
	}
}

// TestModeledWattsCoverWholeTick pins Record.ModeledW to its definition
// at a tick far longer than usual: every system record of a 10 s tick
// carries the mean, under the facility's coefficients at emission, of
// the modeled power of all 10,000 metric buckets the tick spans.
func TestModeledWattsCoverWholeTick(t *testing.T) {
	const tick = 10 * sim.Second
	bed := longBed(t, 3, 3*tick)
	fac := bed.m.Fac
	e := stream.New(bed.m.Sources(), stream.Config{Tick: tick})
	ms := fac.Metrics()
	checked := 0
	e.Sink = sinkFunc(func(r stream.Record) {
		if r.Kind != stream.KindSystem {
			return
		}
		lo, hi := int((r.T-tick)/ms.Interval()), int(r.T/ms.Interval())
		if hi-lo != 10000 || hi > ms.Len() {
			t.Fatalf("tick %d spans buckets [%d,%d) of %d", r.Tick, lo, hi, ms.Len())
		}
		var sum float64
		for b := lo; b < hi; b++ {
			sum += fac.Coeff.Estimate(ms.At(b))
		}
		if want := sum / float64(hi-lo); r.ModeledW != want {
			t.Errorf("tick %d: ModeledW %v, mean over the whole tick %v", r.Tick, r.ModeledW, want)
		}
		checked++
	})
	e.RunTicks(3)
	if checked != 3 {
		t.Fatalf("checked %d system records, want 3", checked)
	}
}
