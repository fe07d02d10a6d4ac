package stream_test

import (
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// longBed deploys a GAE machine with an open loop running to the given
// horizon — the soak/bench variant of deployBed. Every request is filed
// under a tenant/service derived from its type, so the soak exercises
// the hierarchy record path and (under PC_AUDIT=1) the conservation
// checker alongside the flat machinery.
func longBed(tb testing.TB, seed uint64, until sim.Time) testbed {
	tb.Helper()
	m, err := experiments.Exec{}.NewMachine(cpu.SandyBridge, core.ApproachRecalibrated, seed)
	if err != nil {
		tb.Fatal(err)
	}
	rig := m.Deploy(workload.GAE{})
	m.Fac.AttachHierarchy(core.NewHierarchy())
	rig.Gen.ServiceFor = func(reqType string) (string, string) {
		if i := strings.IndexByte(reqType, '/'); i >= 0 {
			return reqType[:i], reqType[i+1:]
		}
		return "misc", reqType
	}
	rig.DriveFrac(0.4, until)
	return testbed{m: m, gen: rig.Gen, t1: until}
}

// TestStreamSoak runs the streaming engine continuously for 30 virtual
// seconds of GAE traffic with auditing and automatic checkpoints on: no
// stream violations, a checkpoint at every boundary, a system record
// every tick, containers retiring throughout, and the drift window's
// memory bound holding. This is the long-running stability test the CI
// race job exercises.
func TestStreamSoak(t *testing.T) {
	const horizon = 30 * sim.Second
	bed := longBed(t, 51, horizon-2*sim.Second)
	probe := &auditProbe{}
	hasher := stream.NewHasher()
	e := stream.New(bed.m.Sources(), stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 50})
	e.Observer = probe
	done, tenantRecs := 0, 0
	e.Sink = stream.Tee{hasher, sinkFunc(func(r stream.Record) {
		if r.Kind == stream.KindContainer && r.Done {
			done++
		}
		if r.Kind == stream.KindTenant {
			tenantRecs++
		}
	})}
	// RunUntil at every tick boundary, the last being the horizon: the
	// engine must land on the exact tick count.
	ticks := int(horizon / (100 * sim.Millisecond))
	checkpoints := checkpointsAlong(t, e, ticks, func(i int) { e.RunUntil(sim.Time(i) * 100 * sim.Millisecond) })
	if e.Tick() != ticks {
		t.Fatalf("engine at tick %d, want %d", e.Tick(), ticks)
	}
	if len(probe.violations) != 0 {
		t.Fatalf("stream violations during soak: %v", probe.violations)
	}
	if want := ticks / 50; len(checkpoints) != want {
		t.Fatalf("%d automatic checkpoints, want %d", len(checkpoints), want)
	}
	if hasher.Count() == 0 || done == 0 {
		t.Fatalf("soak emitted %d records with %d container retirements", hasher.Count(), done)
	}
	if tenantRecs == 0 {
		t.Fatal("hierarchical soak emitted no tenant records")
	}
	// Under PC_AUDIT=1 this runs the hierarchy conservation checker over
	// the whole soak; without an auditor it is a no-op.
	if err := bed.m.FinalizeAudit(); err != nil {
		t.Fatalf("end-of-soak audit: %v", err)
	}
	// The drift window stayed within its 512-pair bound.
	if got, bound := e.DriftWindow(), 512; len(got) > bound {
		t.Fatalf("drift window grew to %d pairs, bound %d", len(got), bound)
	}
	if bed.m.Eng.Pending() == 0 {
		// The open loop stops before the horizon, but chip maintenance
		// and recalibration reschedule forever.
		t.Fatal("engine drained with periodic events still to reschedule")
	}
}

// TestStreamMemoryBounded streams 600 virtual seconds of light GAE traffic
// on both meters (SandyBridge against its 1 ms chip meter, Westmere
// against the 1 s Wattsup meter) and checks, after every tick from the
// one at which the recalibrator's delay locks to the horizon, that the
// facility's metric series holds fewer buckets than
//
//	2 · ((Tick + MaxDelay + meter interval) / bucket + 1).
//
// After the lock, the lowest reader is alignment: a sample arriving after
// the last ingest (at most one tick ago, the recalibration period) reads
// back at most MaxDelay plus one meter interval, so the live part from
// the trim frontier to the newest bucket spans at most the bracketed
// term; a trim copies the live part down once the released prefix is as
// long as it, so the series holds less than twice that. The record
// stream must hash to the digest recorded before trimming existed: the
// trim changes memory, not output. Under -race the horizon is 60 s.
func TestStreamMemoryBounded(t *testing.T) {
	cases := []struct {
		name          string
		spec          cpu.MachineSpec
		sum600        string
		sum60         string
		meterInterval sim.Time
	}{
		{"chip", cpu.SandyBridge,
			"4d647a84ee80ac36ee30278a8211b60a288d11cdf878e4f81647b6d35dea7e60",
			"f58315ad28983755dc64ee01d562b8b1a01a2f76306329bebec24c2b633bf1ff",
			sim.Millisecond},
		{"wall", cpu.Westmere,
			"9bca1d781888b4b1643c49e2efb818cfa0a912d7933238d263a49015562fd108",
			"5b877408a4a91518db82b05b5900d8a07888d5b54722431de84132d72e53817c",
			sim.Second},
	}
	const tick = 100 * sim.Millisecond
	horizon := 600 * sim.Second
	if raceDetector {
		horizon = 60 * sim.Second
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := experiments.Exec{}.NewMachine(tc.spec, core.ApproachRecalibrated, 61)
			if err != nil {
				t.Fatal(err)
			}
			m.Deploy(workload.GAE{}).DriveFrac(0.1, horizon)
			r := m.Fac.Recalibrator()
			if got := r.Meter.Interval(); got != tc.meterInterval {
				t.Fatalf("%s recalibrates against a %s meter, want %s", tc.spec.Name, sim.FormatTime(got), sim.FormatTime(tc.meterInterval))
			}
			ms := m.Fac.Metrics()
			bound := 2 * (int((tick+r.MaxDelay+r.Meter.Interval())/ms.Interval()) + 1)
			e := stream.New(m.Sources(), stream.Config{Tick: tick})
			records := stream.NewHasher()
			e.Sink = records
			locked, peak := -1, 0
			for e.Now() < horizon {
				e.RunTicks(1)
				if _, ok := r.Delay(); !ok {
					continue
				}
				if locked < 0 {
					locked = e.Tick()
				}
				peak = max(peak, ms.Retained())
				if ms.Retained() >= bound {
					t.Fatalf("tick %d: metric series holds %d buckets, bound %d", e.Tick(), ms.Retained(), bound)
				}
			}
			if locked < 0 {
				t.Fatal("the recalibrator never locked its delay")
			}
			t.Logf("delay locked at tick %d; peak %d retained buckets of %d, bound %d", locked, peak, ms.Len(), bound)
			want := tc.sum600
			if raceDetector {
				want = tc.sum60
			}
			if got := records.Sum(); got != want {
				t.Errorf("record stream digest %s, want %s", got, want)
			}
		})
	}
}

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(stream.Record)

func (f sinkFunc) OnRecord(r stream.Record) { f(r) }

// BenchmarkStreamIngest measures steady-state streaming cost: virtual
// ticks consumed per wall second, meter samples ingested per wall second,
// and allocations per tick. scripts/bench_stream.sh parses this into
// BENCH_stream.json.
func BenchmarkStreamIngest(b *testing.B) {
	bed := longBed(b, 53, sim.Time(1)<<62)
	e := stream.New(bed.m.Sources(), stream.Config{Tick: 100 * sim.Millisecond})
	e.Sink = stream.NewHasher()
	// Warm past model bring-up so the benchmark sees steady state.
	e.RunTicks(50)
	start := e.Records()
	var samples int64
	e.Sink = stream.Tee{sinkFunc(func(r stream.Record) {
		if r.Kind == stream.KindSystem {
			samples += int64(r.Samples)
		}
	})}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunTicks(b.N)
	b.StopTimer()
	if e.Records() == start {
		b.Fatal("benchmark ingested nothing")
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "ticks/sec")
		b.ReportMetric(float64(samples)/sec, "samples/sec")
	}
	b.ReportMetric(float64(samples)/float64(b.N), "samples/tick")
}
