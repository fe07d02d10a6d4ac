package powercontainers

import (
	"testing"
	"time"

	"powercontainers/internal/audit"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/export"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// TestDeterministicReplay executes a mixed workload — GAE with virus
// injection and per-client attribution — twice from the same seed and
// requires the full exported per-request accounting (CSV and JSON
// encodings) to be bit-identical. This is a much stronger determinism
// check than comparing a single aggregate: any nondeterministic map
// iteration, unseeded randomness or event-ordering tie anywhere between
// the event queue and the serializers changes the content hash.
func TestDeterministicReplay(t *testing.T) {
	produce := func() ([]export.RequestRecord, error) {
		sys, err := NewSystem("SandyBridge", WithSeed(17))
		if err != nil {
			return nil, err
		}
		run, err := sys.NewRun("GAE-Hybrid", HalfLoad)
		if err != nil {
			return nil, err
		}
		run.AssignClients(8)
		if err := run.InjectPowerViruses(2, 2*time.Second); err != nil {
			return nil, err
		}
		if _, err := run.Execute(5 * time.Second); err != nil {
			return nil, err
		}
		var reqs []*server.Request
		reqs = append(reqs, run.gen.Completed()...)
		for _, g := range run.extra {
			reqs = append(reqs, g.Completed()...)
		}
		if len(reqs) == 0 {
			t.Fatal("replay run completed no requests")
		}
		return export.Collect(reqs), nil
	}
	var hashes [2]string
	for i := range hashes {
		recs, err := produce()
		if err != nil {
			t.Fatalf("replay run %d: %v", i+1, err)
		}
		if hashes[i], err = audit.HashAccounting(recs); err != nil {
			t.Fatal(err)
		}
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("replay diverged: accounting hashes %s vs %s", hashes[0], hashes[1])
	}
}

// TestDeterministicReplayCheckpoint is the streaming extension of the
// replay check: run the streaming engine to a mid-run cut, checkpoint,
// restore the checkpoint into a fresh engine over a freshly built
// identically seeded machine, and require the SHA-256 of the remaining
// record stream to match the uninterrupted run's — any engine state the
// checkpoint fails to capture, or any nondeterminism in the rebuilt
// machine, changes the hash.
func TestDeterministicReplayCheckpoint(t *testing.T) {
	const (
		cut     = 23
		horizon = 6 * sim.Second
	)
	cfg := stream.Config{Tick: 100 * sim.Millisecond}
	build := func() (*experiments.Machine, stream.Sources) {
		m, err := experiments.NewMachine(cpu.SandyBridge, core.ApproachRecalibrated, 17)
		if err != nil {
			t.Fatal(err)
		}
		m.Deploy(workload.GAE{}).DriveFrac(0.4, horizon-sim.Second)
		return m, m.Sources()
	}

	// Uninterrupted run: hash everything emitted after the cut.
	_, src := build()
	full := stream.New(src, cfg)
	var col stream.Collector
	full.Sink = &col
	full.RunUntil(horizon)
	want := stream.NewHasher()
	for _, r := range col.Records {
		if r.Tick > cut {
			want.OnRecord(r)
		}
	}
	if want.Count() == 0 {
		t.Fatal("no records after the cut")
	}

	// Interrupted run: stream to the cut, checkpoint, round-trip the
	// encoding, restore into a fresh engine, continue.
	_, src = build()
	head := stream.New(src, cfg)
	head.RunTicks(cut)
	cp, err := stream.DecodeCheckpoint(stream.EncodeCheckpoint(head.Checkpoint()))
	if err != nil {
		t.Fatal(err)
	}
	_, src = build()
	tail, err := stream.ReplayTo(src, cfg, cp)
	if err != nil {
		t.Fatal(err)
	}
	got := stream.NewHasher()
	tail.Sink = got
	tail.RunUntil(horizon)

	if got.Sum() != want.Sum() {
		t.Fatalf("restored stream SHA-256 %s, uninterrupted %s (%d vs %d records)",
			got.Sum(), want.Sum(), got.Count(), want.Count())
	}
}
