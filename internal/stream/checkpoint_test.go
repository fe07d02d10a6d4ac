package stream_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/model"
	"powercontainers/internal/server"
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
		// Resume around the attributed-ring eviction boundary: with an
		// 8-tick window, cut 7 checkpoints a not-yet-full ring, cut 8
		// an exactly-full one (the next append evicts), and cut 9 a
		// ring whose first slot has been folded into the prefix sum.
		{"eviction-boundary", stream.Config{Tick: 100 * sim.Millisecond, TickWindow: 8}, []int{7, 8, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { testCheckpointReplay(t, tc.cfg, tc.cuts) })
	}
}

func testCheckpointReplay(t *testing.T, cfg stream.Config, cuts []int) {
	const seed = 31

	// Baseline: one uninterrupted streaming run collecting everything.
	base := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	be := stream.New(stream.Sources{Eng: base.m.Eng, Fac: base.m.Fac, Meter: base.m.Chip, Scope: model.ScopePackage}, cfg)
	var baseCol stream.Collector
	be.Sink = &baseCol
	be.RunUntil(base.end())
	if len(baseCol.Records) == 0 {
		t.Fatal("baseline emitted no records")
	}

	for _, cut := range cuts {
		// Run a fresh bed to the cut and checkpoint there.
		bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: bed.m.Chip, Scope: model.ScopePackage}, cfg)
		e.RunTicks(cut)
		enc := stream.EncodeCheckpoint(e.Checkpoint())
		cp, err := stream.DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("cut %d: decode: %v", cut, err)
		}

		// Restore into a fresh engine over a fresh machine and continue.
		bed2 := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		re, err := stream.ReplayTo(stream.Sources{Eng: bed2.m.Eng, Fac: bed2.m.Fac, Meter: bed2.m.Chip, Scope: model.ScopePackage}, cfg, cp)
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
	e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: bed.m.Chip, Scope: model.ScopePackage}, cfg)
	e.RunTicks(25)
	cp := e.Checkpoint()

	other := deployBed(t, core.ApproachRecalibrated, 32, workload.Stress{}, 0.5)
	if _, err := stream.ReplayTo(stream.Sources{Eng: other.m.Eng, Fac: other.m.Fac, Meter: other.m.Chip, Scope: model.ScopePackage}, cfg, cp); err == nil {
		t.Fatal("ReplayTo accepted a checkpoint from a differently-seeded run")
	}

	// A mismatched tick grid is rejected up front.
	bad := stream.Config{Tick: 70 * sim.Millisecond}
	third := deployBed(t, core.ApproachRecalibrated, 31, workload.Stress{}, 0.5)
	if _, err := stream.ReplayTo(stream.Sources{Eng: third.m.Eng, Fac: third.m.Fac, Meter: third.m.Chip, Scope: model.ScopePackage}, bad, cp); err == nil {
		t.Fatal("ReplayTo accepted a checkpoint off the configured tick grid")
	}
}

func TestDecodeCheckpointValidates(t *testing.T) {
	if _, err := stream.DecodeCheckpoint([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := stream.DecodeCheckpoint([]byte(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := stream.DecodeCheckpoint([]byte(`{"version":1}`)); err == nil {
		t.Fatal("superseded version accepted")
	}
	if _, err := stream.DecodeCheckpoint([]byte(`{"version":2,"tick":-1}`)); err == nil {
		t.Fatal("negative tick accepted")
	}
}

// auditProbe records AuditSink callbacks.
type auditProbe struct {
	checkpoints []int
	violations  []string
}

func (p *auditProbe) OnCheckpoint(tick int, t sim.Time, encodedBytes int) {
	p.checkpoints = append(p.checkpoints, tick)
	if encodedBytes <= 0 {
		panic("empty checkpoint encoding")
	}
}
func (p *auditProbe) OnStreamViolation(check string, t sim.Time, detail string) {
	p.violations = append(p.violations, check)
}

// TestAutomaticCheckpoints pins the periodic snapshot path: with
// CheckpointEvery set, the engine retains its latest checkpoint, fires
// the OnCheckpoint audit hook at each boundary, and the retained
// checkpoint is itself restorable.
func TestAutomaticCheckpoints(t *testing.T) {
	bed := deployBed(t, core.ApproachRecalibrated, 33, workload.Stress{}, 0.5)
	probe := &auditProbe{}
	e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: bed.m.Chip, Scope: model.ScopePackage},
		stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10})
	e.Audit = probe
	e.RunTicks(35)
	if e.LastCheckpoint() == nil || e.LastCheckpoint().Tick != 30 {
		t.Fatalf("LastCheckpoint = %+v, want tick 30", e.LastCheckpoint())
	}
	if len(probe.checkpoints) != 3 || probe.checkpoints[0] != 10 || probe.checkpoints[2] != 30 {
		t.Fatalf("OnCheckpoint ticks = %v, want [10 20 30]", probe.checkpoints)
	}
	if len(probe.violations) != 0 {
		t.Fatalf("stream violations on a clean run: %v", probe.violations)
	}

	bed2 := deployBed(t, core.ApproachRecalibrated, 33, workload.Stress{}, 0.5)
	re, err := stream.ReplayTo(stream.Sources{Eng: bed2.m.Eng, Fac: bed2.m.Fac, Meter: bed2.m.Chip, Scope: model.ScopePackage},
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
// every automatic checkpoint (CheckpointEvery 10) of three runs is
// hashed, as is the record stream, and both digests must equal recorded
// ones: checkpoints are persisted (a durable store resumes from them and
// ReplayTo compares them byte for byte), so their bytes change only with
// CheckpointVersion. The cases cover the window filling and evicting (13 s of 1 ms buckets
// against the default 8192), evictions inside a single tick (a 64-bucket
// window, fewer than one tick adds), and coefficients that change only
// once a second (recalibration against the wall meter).
func TestCheckpointBytesStable(t *testing.T) {
	cases := []struct {
		name        string
		spec        cpu.MachineSpec
		wall        bool // stream against the wall meter the recalibrator uses
		modelWindow int
		checkpoints string
		stream      string
	}{
		{"chip", cpu.SandyBridge, false, 0,
			"82c7e7ac4b91d7ffb62cd5fa80bd0b3b1b7a295e264c1aa3fd7d86c2f6672224",
			"cdb63181be4480f7e0f42205009b09fa9ecad4cbc890a751d5da3c46a997d312"},
		{"chip-window-64", cpu.SandyBridge, false, 64,
			"f80b416538b7c42ab8c36a15181175d730b4022ba9f6f213d65f00f3e954f08f",
			"26771e7a99d787bd710f658a66d6c2161746ac725353e6ca0b747a50a8672e3e"},
		{"wall", cpu.Westmere, true, 0,
			"2508aefdbc34f65fa36018d65eebbd22eba91f9ea7b69d754a221f00882126b1",
			"6590b7bc74b29f20a76add695790a46fd4558af88ac8d4adb15d015732037499"},
	}
	const horizon = 13 * sim.Second
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := experiments.Assembly{}.NewMachine(tc.spec, core.ApproachRecalibrated, 41)
			if err != nil {
				t.Fatal(err)
			}
			dep := workload.Stress{}.Deploy(m.K, m.Rng.Fork(11))
			server.NewLoadGen(m.K, m.Fac, dep).RunOpenLoop(0.5*experiments.PeakRate(m.K.Spec, dep), horizon-sim.Second, m.Rng.Fork(13))
			src := stream.Sources{Eng: m.Eng, Fac: m.Fac, Meter: m.Chip, Scope: model.ScopePackage}
			if tc.wall {
				src.Meter, src.Scope = m.Wattsup, model.ScopeMachine
			}
			e := stream.New(src, stream.Config{Tick: 100 * sim.Millisecond, ModelWindow: tc.modelWindow, CheckpointEvery: 10})
			records := stream.NewHasher()
			e.Sink = records
			cps := sha256.New()
			for e.Now() < horizon {
				e.RunTicks(10)
				cps.Write(stream.EncodeCheckpoint(e.LastCheckpoint()))
			}
			if mod := e.LastCheckpoint().Modeled; mod.Lo == 0 {
				t.Fatalf("modeled window never evicted (hi %d, cap %d)", mod.Hi, mod.Cap)
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
