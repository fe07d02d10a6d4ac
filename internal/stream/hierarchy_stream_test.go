package stream_test

import (
	"bytes"
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// TestStreamEmitsHierarchyRecords pins the hierarchy record contract:
// a machine with a hierarchy attached streams per-service and per-tenant
// roll-up records each tick — service labels qualified "tenant/service"
// with Client naming the tenant, tick ordering container → service →
// tenant → system — and the final cumulative values agree bit-for-bit
// with the hierarchy's incremental accumulators.
func TestStreamEmitsHierarchyRecords(t *testing.T) {
	const horizon = 4 * sim.Second
	bed := longBed(t, 61, horizon-sim.Second)
	e := stream.New(bed.m.Sources(), stream.Config{Tick: 100 * sim.Millisecond})
	var col stream.Collector
	e.Sink = &col
	e.RunUntil(horizon)

	lastSvc := map[string]stream.Record{}
	lastTen := map[string]stream.Record{}
	rank := func(k stream.Kind) int {
		switch k {
		case stream.KindContainer:
			return 0
		case stream.KindService:
			return 1
		case stream.KindTenant:
			return 2
		default:
			return 3
		}
	}
	prevTick, prevRank := 0, 0
	for _, r := range col.Records {
		if r.Tick != prevTick {
			prevTick, prevRank = r.Tick, 0
		}
		if got := rank(r.Kind); got < prevRank {
			t.Fatalf("tick %d: record kind %v out of order", r.Tick, r.Kind)
		} else {
			prevRank = got
		}
		switch r.Kind {
		case stream.KindService:
			if !strings.HasPrefix(r.Label, r.Client+"/") {
				t.Fatalf("service record label %q not qualified under tenant %q", r.Label, r.Client)
			}
			lastSvc[r.Label] = r
		case stream.KindTenant:
			if r.Client != "" || strings.Contains(r.Label, "/") {
				t.Fatalf("tenant record carries %q/%q", r.Label, r.Client)
			}
			lastTen[r.Label] = r
		}
	}
	if len(lastSvc) == 0 || len(lastTen) == 0 {
		t.Fatalf("hierarchical stream emitted %d service and %d tenant labels", len(lastSvc), len(lastTen))
	}

	// The load stops a second before the horizon, so by the final tick
	// every cumulative is settled: the last streamed value per node must
	// equal the hierarchy accumulator exactly.
	h := bed.m.Fac.Hierarchy()
	for i := 0; i < h.NumServices(); i++ {
		s := h.ServiceAt(i)
		r, ok := lastSvc[s.Qualified()]
		if !ok {
			t.Fatalf("service %s never streamed", s.Qualified())
		}
		if r.CumEnergyJ != s.Usage().EnergyJ() {
			t.Fatalf("service %s streamed cum %v J, accumulator %v J", s.Qualified(), r.CumEnergyJ, s.Usage().EnergyJ())
		}
		if r.ID != s.Index {
			t.Fatalf("service %s streamed ID %d, index %d", s.Qualified(), r.ID, s.Index)
		}
	}
	for i := 0; i < h.NumTenants(); i++ {
		ten := h.TenantAt(i)
		r, ok := lastTen[ten.Name]
		if !ok {
			t.Fatalf("tenant %s never streamed", ten.Name)
		}
		if r.CumEnergyJ != ten.Usage().EnergyJ() {
			t.Fatalf("tenant %s streamed cum %v J, accumulator %v J", ten.Name, r.CumEnergyJ, ten.Usage().EnergyJ())
		}
	}
}

// TestFlatStreamHasNoHierarchyRecords pins flat-mode byte-identity at the
// stream level: without a hierarchy attached, no service or tenant record
// is ever emitted, so a flat machine's canonical stream encoding is
// untouched by the hierarchy machinery.
func TestFlatStreamHasNoHierarchyRecords(t *testing.T) {
	bed := deployBed(t, core.ApproachChipShare, 62, workload.Stress{}, 0.5)
	e := stream.New(bed.m.Sources(), stream.Config{Tick: 100 * sim.Millisecond})
	var col stream.Collector
	e.Sink = &col
	e.RunUntil(bed.end())
	for _, r := range col.Records {
		if r.Kind == stream.KindService || r.Kind == stream.KindTenant {
			t.Fatalf("flat stream emitted a %v record for %q", r.Kind, r.Label)
		}
	}
	if cp := e.Checkpoint(); len(cp.SvcLast) != 0 || len(cp.TenLast) != 0 {
		t.Fatalf("flat checkpoint carries hierarchy cursors: %v / %v", cp.SvcLast, cp.TenLast)
	}
}

// TestHierarchyCheckpointReplay extends the exact-replay contract to
// hierarchy mode: a checkpoint taken mid-run over a hierarchical machine
// carries the roll-up cursors, and ReplayTo over a freshly built
// identically-seeded machine reproduces the remaining stream — service
// and tenant records included — byte-for-byte.
func TestHierarchyCheckpointReplay(t *testing.T) {
	const seed, horizon = 63, 5 * sim.Second
	cfg := stream.Config{Tick: 100 * sim.Millisecond}

	base := longBed(t, seed, horizon-sim.Second)
	be := stream.New(base.m.Sources(), cfg)
	var baseCol stream.Collector
	be.Sink = &baseCol
	be.RunUntil(horizon)

	const cut = 23
	bed := longBed(t, seed, horizon-sim.Second)
	e := stream.New(bed.m.Sources(), cfg)
	e.RunTicks(cut)
	enc := stream.EncodeCheckpoint(e.Checkpoint())
	if !bytes.Contains(enc, []byte(`"svc_last"`)) || !bytes.Contains(enc, []byte(`"ten_last"`)) {
		t.Fatal("hierarchical checkpoint encoding lacks the roll-up cursors")
	}
	cp, err := stream.DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}

	bed2 := longBed(t, seed, horizon-sim.Second)
	re, err := stream.ReplayTo(bed2.m.Sources(), cfg, cp)
	if err != nil {
		t.Fatalf("ReplayTo: %v", err)
	}
	var tail stream.Collector
	re.Sink = &tail
	re.RunUntil(horizon)

	var want stream.Collector
	hadHier := false
	for _, r := range baseCol.Records {
		if r.Tick > cut {
			want.OnRecord(r)
			if r.Kind == stream.KindService || r.Kind == stream.KindTenant {
				hadHier = true
			}
		}
	}
	if !hadHier {
		t.Fatal("baseline tail contains no hierarchy records — test is vacuous")
	}
	if !bytes.Equal(tail.Encode(), want.Encode()) {
		t.Fatalf("restored tail (%d records) differs from uninterrupted run (%d records)",
			len(tail.Records), len(want.Records))
	}
	if stream.HashRecords(tail.Records) != stream.HashRecords(want.Records) {
		t.Fatal("tail SHA-256 mismatch")
	}
}
