package stream_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// TestCheckpointReplayReproducesStream is the exact-replay contract: for
// several cut points, checkpointing a streaming run at the cut, encoding
// and decoding the checkpoint, restoring it into a fresh engine over a
// freshly built identically-seeded machine (ReplayTo), and continuing to
// the horizon must reproduce the remaining record stream byte-for-byte —
// same canonical encodings, same SHA-256.
func TestCheckpointReplayReproducesStream(t *testing.T) {
	cases := []struct {
		name string
		cfg  stream.Config
		cuts []int
	}{
		{"default-window", stream.Config{Tick: 100 * sim.Millisecond}, []int{1, 17, 38}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { testCheckpointReplay(t, tc.cfg, tc.cuts) })
	}
}

func testCheckpointReplay(t *testing.T, cfg stream.Config, cuts []int) {
	const seed = 31

	// Baseline: one uninterrupted streaming run collecting everything.
	base := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	be := stream.New(base.m.Sources(), cfg)
	var baseCol stream.Collector
	be.Sink = &baseCol
	be.RunUntil(base.end())
	if len(baseCol.Records) == 0 {
		t.Fatal("baseline emitted no records")
	}

	for _, cut := range cuts {
		// Run a fresh bed to the cut and checkpoint there.
		bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		e := stream.New(bed.m.Sources(), cfg)
		e.RunTicks(cut)
		enc := stream.EncodeCheckpoint(e.Checkpoint())
		cp, err := stream.DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("cut %d: decode: %v", cut, err)
		}

		// Restore into a fresh engine over a fresh machine and continue.
		bed2 := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		re, err := stream.ReplayTo(bed2.m.Sources(), cfg, cp)
		if err != nil {
			t.Fatalf("cut %d: ReplayTo: %v", cut, err)
		}
		var tail stream.Collector
		re.Sink = &tail
		re.RunUntil(bed2.end())

		// The remaining stream must match the uninterrupted run exactly.
		var want stream.Collector
		for _, r := range baseCol.Records {
			if r.Tick > cut {
				want.OnRecord(r)
			}
		}
		if got, exp := stream.HashRecords(tail.Records), stream.HashRecords(want.Records); got != exp {
			t.Fatalf("cut %d: restored tail SHA-256 %s, uninterrupted tail %s (%d vs %d records)",
				cut, got, exp, len(tail.Records), len(want.Records))
		}
		if !bytes.Equal(tail.Encode(), want.Encode()) {
			t.Fatalf("cut %d: restored tail encoding differs from uninterrupted run", cut)
		}
		// Final engine state agrees too.
		if re.Records() != be.Records() || re.CumAttributedJ() != be.CumAttributedJ() {
			t.Fatalf("cut %d: final state records=%d cum=%v, want records=%d cum=%v",
				cut, re.Records(), re.CumAttributedJ(), be.Records(), be.CumAttributedJ())
		}
	}
}

// TestReplayToRejectsForeignCheckpoint pins the divergence guard: a
// checkpoint replayed over a machine built from a different seed must be
// refused (the quiet replay's natural state cannot match).
func TestReplayToRejectsForeignCheckpoint(t *testing.T) {
	cfg := stream.Config{Tick: 100 * sim.Millisecond}
	bed := deployBed(t, core.ApproachRecalibrated, 31, workload.Stress{}, 0.5)
	e := stream.New(bed.m.Sources(), cfg)
	e.RunTicks(25)
	cp := e.Checkpoint()

	other := deployBed(t, core.ApproachRecalibrated, 32, workload.Stress{}, 0.5)
	if _, err := stream.ReplayTo(other.m.Sources(), cfg, cp); err == nil {
		t.Fatal("ReplayTo accepted a checkpoint from a differently-seeded run")
	}

	// A mismatched tick grid is rejected up front.
	bad := stream.Config{Tick: 70 * sim.Millisecond}
	third := deployBed(t, core.ApproachRecalibrated, 31, workload.Stress{}, 0.5)
	if _, err := stream.ReplayTo(third.m.Sources(), bad, cp); err == nil {
		t.Fatal("ReplayTo accepted a checkpoint off the configured tick grid")
	}
}

// TestCheckpointDigestCoversState checks that the checkpoint digest covers
// the whole consumer state ReplayTo compares: on a hierarchy bed with a
// full, evicting drift window and a locked delay, the two sides of every
// stream.DigestCases case (one per hashed value, plus two that only the
// live and service counts tell apart) must hash differently, undoing a
// case must restore the digest, and a non-finite value must refuse to
// checkpoint, naming its field.
func TestCheckpointDigestCoversState(t *testing.T) {
	bed := longBed(t, 67, 10*sim.Second)
	e := stream.New(bed.m.Sources(), stream.Config{Tick: 100 * sim.Millisecond})
	var col stream.Collector
	e.Sink = &col
	e.RunTicks(40)
	if _, ok := bed.m.Fac.Recalibrator().Delay(); !ok {
		t.Fatal("the recalibrator never locked its delay")
	}
	if n := len(e.DriftWindow()); n != 512 || e.DriftEvictions() == 0 {
		t.Fatalf("drift window holds %d pairs after %d evictions, want a full evicting window", n, e.DriftEvictions())
	}
	var svc, ten bool
	for _, r := range col.Records {
		svc = svc || r.Kind == stream.KindService
		ten = ten || r.Kind == stream.KindTenant
	}
	if !svc || !ten {
		t.Fatal("the bed streamed no service or tenant records")
	}

	base := e.Checkpoint().State
	state := func(edit stream.StateEdit) string {
		if edit == nil {
			return e.Checkpoint().State
		}
		undo := edit(e)
		defer undo()
		return e.Checkpoint().State
	}
	for _, c := range stream.DigestCases() {
		if a, b := state(c.A), state(c.B); a == b {
			t.Errorf("%s: both sides hash to %s", c.Name, a)
		}
		if got := e.Checkpoint().State; got != base {
			t.Fatalf("%s: undo left digest %s, want %s", c.Name, got, base)
		}
	}

	// A non-finite value refuses to checkpoint, naming its field.
	for _, c := range stream.NonFiniteCases() {
		func() {
			defer c.Edit(e)()
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.Field) {
					t.Errorf("non-finite %s: checkpoint panicked with %q", c.Field, msg)
				}
			}()
			e.Checkpoint()
		}()
	}
	if got := e.Checkpoint().State; got != base {
		t.Fatalf("after the non-finite cases the digest is %s, want %s", got, base)
	}
}

func TestDecodeCheckpointValidates(t *testing.T) {
	const digest = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, err := stream.DecodeCheckpoint([]byte(`{"version":4,"tick":3,"t":300000000,"records":7,"state":"` + digest + `"}`)); err != nil {
		t.Fatalf("well-formed checkpoint refused: %v", err)
	}
	for _, tc := range []struct{ name, data string }{
		{"garbage", "{"},
		{"future version", `{"version":99}`},
		{"superseded version", `{"version":1}`},
		{"format 3", `{"version":3,"tick":3,"t":300000000,"records":7,"cum_j":1.5,"meter_seen":9,"containers_seen":1,"live":[{"id":0,"last_j":1.5}]}`},
		{"negative tick", `{"version":4,"tick":-1,"state":"` + digest + `"}`},
		{"negative time", `{"version":4,"tick":1,"t":-1,"state":"` + digest + `"}`},
		{"negative records", `{"version":4,"tick":1,"t":100000000,"records":-1,"state":"` + digest + `"}`},
		{"records at tick 0", `{"version":4,"tick":0,"t":0,"records":1,"state":"` + digest + `"}`},
		{"no state", `{"version":4,"tick":1,"t":100000000,"records":1}`},
		{"short state", `{"version":4,"tick":1,"t":100000000,"records":1,"state":"` + digest[1:] + `"}`},
		{"upper-case state", `{"version":4,"tick":1,"t":100000000,"records":1,"state":"` + strings.ToUpper(digest) + `"}`},
		{"non-hex state", `{"version":4,"tick":1,"t":100000000,"records":1,"state":"` + digest[:63] + `g"}`},
	} {
		if _, err := stream.DecodeCheckpoint([]byte(tc.data)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// auditProbe records the engine's stream-violation observations.
type auditProbe struct {
	violations []string
}

func (p *auditProbe) Observe(e sim.Event) {
	if e.Kind == sim.KindStreamViolation {
		p.violations = append(p.violations, e.Name)
	}
}

// checkpointsAlong calls advance(i) for i = 1..n and returns the tick of
// every fresh checkpoint LastCheckpoint reports after a call; each must
// encode non-empty.
func checkpointsAlong(t *testing.T, e *stream.Engine, n int, advance func(i int)) []int {
	t.Helper()
	var ticks []int
	last := e.LastCheckpoint()
	for i := 1; i <= n; i++ {
		advance(i)
		if cp := e.LastCheckpoint(); cp != last {
			if len(stream.EncodeCheckpoint(cp)) == 0 {
				t.Fatalf("empty checkpoint encoding at tick %d", cp.Tick)
			}
			ticks = append(ticks, cp.Tick)
			last = cp
		}
	}
	return ticks
}

// TestAutomaticCheckpoints pins the periodic snapshot path: with
// CheckpointEvery set, the engine takes a fresh checkpoint at each
// boundary, retains the latest, and the retained checkpoint is itself
// restorable.
func TestAutomaticCheckpoints(t *testing.T) {
	bed := deployBed(t, core.ApproachRecalibrated, 33, workload.Stress{}, 0.5)
	probe := &auditProbe{}
	e := stream.New(bed.m.Sources(), stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10})
	e.Observer = probe
	checkpoints := checkpointsAlong(t, e, 35, func(int) { e.RunTicks(1) })
	if e.LastCheckpoint() == nil || e.LastCheckpoint().Tick != 30 {
		t.Fatalf("LastCheckpoint = %+v, want tick 30", e.LastCheckpoint())
	}
	if len(checkpoints) != 3 || checkpoints[0] != 10 || checkpoints[2] != 30 {
		t.Fatalf("checkpoint ticks = %v, want [10 20 30]", checkpoints)
	}
	if len(probe.violations) != 0 {
		t.Fatalf("stream violations on a clean run: %v", probe.violations)
	}

	bed2 := deployBed(t, core.ApproachRecalibrated, 33, workload.Stress{}, 0.5)
	re, err := stream.ReplayTo(bed2.m.Sources(),
		stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10}, e.LastCheckpoint())
	if err != nil {
		t.Fatalf("replaying the automatic checkpoint: %v", err)
	}
	if re.Tick() != 30 {
		t.Fatalf("restored engine at tick %d, want 30", re.Tick())
	}
	// The restored engine retains the checkpoint it resumed from and
	// keeps the cadence: ten more ticks checkpoint identically on both.
	if got, want := stream.EncodeCheckpoint(re.LastCheckpoint()), stream.EncodeCheckpoint(e.LastCheckpoint()); !bytes.Equal(got, want) {
		t.Fatal("restored engine's LastCheckpoint differs from the one it resumed from")
	}
	e.RunTicks(10)
	re.RunTicks(10)
	if e.LastCheckpoint().Tick != 40 || !bytes.Equal(stream.EncodeCheckpoint(re.LastCheckpoint()), stream.EncodeCheckpoint(e.LastCheckpoint())) {
		t.Fatalf("checkpoints at tick %d differ between the original and the restored engine", e.LastCheckpoint().Tick)
	}
}

// TestCheckpointBytesStable pins the checkpoint format byte for byte:
// every automatic checkpoint (CheckpointEvery 10) of two runs is hashed,
// as is the record stream, and both digests must equal recorded ones:
// checkpoints are persisted (a durable store resumes from them and
// ReplayTo compares their state digests), so their bytes change only with
// CheckpointVersion. The cases cover the drift window filling and
// evicting (13 s of 1 ms chip samples against its 512 pairs) and
// coefficients that change only once a second (recalibration against the
// wall meter).
func TestCheckpointBytesStable(t *testing.T) {
	cases := []struct {
		name        string
		spec        cpu.MachineSpec // streams against the meter its recalibrator uses
		checkpoints string
		stream      string
	}{
		{"chip", cpu.SandyBridge,
			"26a970388d5f1f38256c6a7b7b3401253db18f8f535592ca742e088cedf69fe3",
			"cdb63181be4480f7e0f42205009b09fa9ecad4cbc890a751d5da3c46a997d312"},
		{"wall", cpu.Westmere,
			"80283dea5f67ae3cf53f1920efac18d626d960f53299f52ec9aa3044e8c43d00",
			"6590b7bc74b29f20a76add695790a46fd4558af88ac8d4adb15d015732037499"},
	}
	const horizon = 13 * sim.Second
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := experiments.Exec{}.NewMachine(tc.spec, core.ApproachRecalibrated, 41)
			if err != nil {
				t.Fatal(err)
			}
			m.Deploy(workload.Stress{}).DriveFrac(0.5, horizon-sim.Second)
			e := stream.New(m.Sources(), stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10})
			records := stream.NewHasher()
			e.Sink = records
			cps := sha256.New()
			for e.Now() < horizon {
				e.RunTicks(10)
				cps.Write(stream.EncodeCheckpoint(e.LastCheckpoint()))
			}
			if m.Fac.Recalibrator().Refits() == 0 {
				t.Fatal("the recalibrator never changed the coefficients")
			}
			if got := hex.EncodeToString(cps.Sum(nil)); got != tc.checkpoints {
				t.Errorf("checkpoint digest %s, want %s", got, tc.checkpoints)
			}
			if got := records.Sum(); got != tc.stream {
				t.Errorf("record stream digest %s, want %s", got, tc.stream)
			}
		})
	}
}

var checkpointSink []byte

// BenchmarkStreamCheckpoint times what every CheckpointEvery-th tick pays
// for its checkpoint, Engine.Checkpoint plus EncodeCheckpoint, on a
// hierarchy engine whose drift window is full, and reports the encoded
// size. scripts/bench_stream.sh records it in BENCH_stream.json.
func BenchmarkStreamCheckpoint(b *testing.B) {
	bed := longBed(b, 53, sim.Time(1)<<62)
	e := stream.New(bed.m.Sources(), stream.Config{Tick: 100 * sim.Millisecond})
	e.RunTicks(50)
	if n := len(e.DriftWindow()); n != 512 {
		b.Fatalf("drift window holds %d pairs, want 512", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpointSink = stream.EncodeCheckpoint(e.Checkpoint())
	}
	b.StopTimer()
	b.ReportMetric(float64(len(checkpointSink)), "bytes/ckpt")
}
