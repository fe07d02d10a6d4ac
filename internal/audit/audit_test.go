package audit

import (
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/sim"
)

// countCheck returns how many recorded violations belong to one invariant.
func countCheck(a *Auditor, check string) int {
	n := 0
	for _, v := range a.Violations() {
		if v.Check == check {
			n++
		}
	}
	return n
}

func TestCleanAuditorHasNoError(t *testing.T) {
	a := New("clean")
	a.Observe(sim.Event{Kind: sim.KindStep, T: sim.Millisecond, Seq: 1})
	a.Observe(sim.Event{Kind: sim.KindStep, T0: sim.Millisecond, T: sim.Millisecond, Seq: 2})
	a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: "buf", Seq: 1, N: 100, Tag: "ctx"})
	a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: "buf", Seq: 1, N: 100, Tag: "ctx"})
	a.Observe(sim.Event{Kind: sim.KindRecord, Name: "core", T: sim.Millisecond, X: 0.5})
	// Well-formed repairs, rejections, fallbacks, faults and recovery
	// actions are bookkeeping, not breaches.
	for _, e := range []sim.Event{
		{Kind: sim.KindCounterFix, N: 1, Name: "unwrap", T: sim.Millisecond},
		{Kind: sim.KindCounterFix, N: 1, Name: "extrapolate", T: sim.Millisecond},
		{Kind: sim.KindRecalReject, T: sim.Millisecond, X: -5, Y: 2},
		{Kind: sim.KindRecalFallback, T: sim.Millisecond, Detail: "refit diverged from offline base"},
		{Kind: sim.KindFault, T: sim.Millisecond, Name: "counter", Class: "lost-interrupt"},
		{Kind: sim.KindWALTruncate, Name: "wal-00000001.seg", N: 12, M: 30, Detail: "torn tail"},
		{Kind: sim.KindRecovery, Name: "scratch", N: 40, M: -1},
	} {
		a.Observe(e)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("clean auditor reported error: %v", err)
	}
}

func TestSimOrderDetection(t *testing.T) {
	a := New("t")
	a.Observe(sim.Event{Kind: sim.KindStep, T: 2 * sim.Millisecond, Seq: 1})
	// Clock at 2 ms, event stamped 1 ms: time went backwards.
	a.Observe(sim.Event{Kind: sim.KindStep, T0: 2 * sim.Millisecond, T: sim.Millisecond, Seq: 2})
	if got := countCheck(a, "sim-order"); got != 1 {
		t.Fatalf("backward time: %d sim-order violations, want 1", got)
	}

	b := New("t")
	b.Observe(sim.Event{Kind: sim.KindStep, T: sim.Millisecond, Seq: 5})
	// Same instant, lower sequence number: FIFO order broken.
	b.Observe(sim.Event{Kind: sim.KindStep, T0: sim.Millisecond, T: sim.Millisecond, Seq: 3})
	if got := countCheck(b, "sim-order"); got != 1 {
		t.Fatalf("seq regression: %d sim-order violations, want 1", got)
	}
}

func TestSocketTagDetection(t *testing.T) {
	buf := "conn-a"

	t.Run("deliver without enqueue", func(t *testing.T) {
		a := New("t")
		a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: buf, Seq: 7, N: 10, Tag: "ctx"})
		if countCheck(a, "socket-tags") != 1 {
			t.Fatal("orphan delivery not detected")
		}
	})
	t.Run("double enqueue", func(t *testing.T) {
		a := New("t")
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: buf, Seq: 1, N: 10, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: buf, Seq: 1, N: 10, Tag: "ctx"})
		if countCheck(a, "socket-tags") != 1 {
			t.Fatal("duplicate enqueue not detected")
		}
	})
	t.Run("tag mutated in flight", func(t *testing.T) {
		a := New("t")
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: buf, Seq: 1, N: 10, Tag: "ctx-a"})
		a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: buf, Seq: 1, N: 10, Tag: "ctx-b"})
		if countCheck(a, "socket-tags") != 1 {
			t.Fatal("tag mutation not detected")
		}
	})
	t.Run("size mutated in flight", func(t *testing.T) {
		a := New("t")
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: buf, Seq: 1, N: 10, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: buf, Seq: 1, N: 99, Tag: "ctx"})
		if countCheck(a, "socket-tags") != 1 {
			t.Fatal("size mutation not detected")
		}
	})
	t.Run("reordered delivery", func(t *testing.T) {
		a := New("t")
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: buf, Seq: 1, N: 10, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: buf, Seq: 2, N: 10, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: buf, Seq: 2, N: 10, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: buf, Seq: 1, N: 10, Tag: "ctx"})
		if countCheck(a, "socket-tags") != 1 {
			t.Fatal("out-of-order delivery not detected")
		}
	})
	t.Run("independent buffers do not interfere", func(t *testing.T) {
		a := New("t")
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: "conn-a", Seq: 1, N: 10, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockEnqueue, Obj: "conn-b", Seq: 2, N: 20, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: "conn-b", Seq: 2, N: 20, Tag: "ctx"})
		a.Observe(sim.Event{Kind: sim.KindSockDeliver, Obj: "conn-a", Seq: 1, N: 10, Tag: "ctx"})
		if err := a.Err(); err != nil {
			t.Fatalf("cross-buffer ordering falsely flagged: %v", err)
		}
	})
}

func TestLifecycleDetection(t *testing.T) {
	t.Run("attribution after final release", func(t *testing.T) {
		a := New("t")
		c := &core.Container{ID: 1, Label: "req-1", Kind: core.KindRequest, Released: true}
		a.Observe(sim.Event{Kind: sim.KindPeriod, Obj: c, Name: "srv", T: sim.Millisecond, X: 0.01, Y: 0.001, Z: 0.5})
		if countCheck(a, "lifecycle") != 1 {
			t.Fatal("attribution after release not detected")
		}
	})
	t.Run("device attribution after final release", func(t *testing.T) {
		a := New("t")
		c := &core.Container{ID: 1, Label: "req-1", Kind: core.KindRequest, Released: true}
		a.Observe(sim.Event{Kind: sim.KindDevicePeriod, Obj: c, T: sim.Millisecond, X: 0.01})
		if countCheck(a, "lifecycle") != 1 {
			t.Fatal("device attribution after release not detected")
		}
	})
	t.Run("retain after final release", func(t *testing.T) {
		a := New("t")
		c := &core.Container{ID: 2, Label: "req-2", Kind: core.KindRequest, Released: true}
		a.Observe(sim.Event{Kind: sim.KindRetain, Obj: c})
		if countCheck(a, "lifecycle") != 1 {
			t.Fatal("retain after release not detected")
		}
	})
	t.Run("background exempt from release rules", func(t *testing.T) {
		a := New("t")
		c := &core.Container{ID: 0, Label: "background", Kind: core.KindBackground}
		a.Observe(sim.Event{Kind: sim.KindRetain, Obj: c})
		a.Observe(sim.Event{Kind: sim.KindPeriod, Obj: c, Name: "idle", T: sim.Millisecond, X: 0.01, Y: 0, Z: 0})
		if err := a.Err(); err != nil {
			t.Fatalf("background container falsely flagged: %v", err)
		}
	})
}

func TestPeriodSanityDetection(t *testing.T) {
	c := &core.Container{ID: 1, Label: "req-1", Kind: core.KindRequest}

	a := New("t")
	a.Observe(sim.Event{Kind: sim.KindPeriod, Obj: c, Name: "srv", T0: 2 * sim.Millisecond, T: sim.Millisecond, X: 0.01, Y: 0, Z: 0.5})
	if countCheck(a, "energy-conservation") != 1 {
		t.Fatal("reversed period not detected")
	}

	a = New("t")
	// Negative energy also breaks the chip-energy ≤ period-energy bound,
	// so two conservation violations fire.
	a.Observe(sim.Event{Kind: sim.KindPeriod, Obj: c, Name: "srv", T: sim.Millisecond, X: -0.01, Y: 0, Z: 0.5})
	if countCheck(a, "energy-conservation") != 2 {
		t.Fatal("negative period energy not detected")
	}

	a = New("t")
	a.Observe(sim.Event{Kind: sim.KindPeriod, Obj: c, Name: "srv", T: sim.Millisecond, X: 0.01, Y: 0.02, Z: 0.5})
	if countCheck(a, "energy-conservation") != 1 {
		t.Fatal("chip energy above period energy not detected")
	}

	a = New("t")
	a.Observe(sim.Event{Kind: sim.KindPeriod, Obj: c, Name: "srv", T: sim.Millisecond, X: 0.01, Y: 0.001, Z: 1.5})
	if countCheck(a, "chip-share") != 1 {
		t.Fatal("Eq. 3 share above 1 not detected")
	}
}

func TestRecorderDetection(t *testing.T) {
	a := New("t")
	a.Observe(sim.Event{Kind: sim.KindRecord, Name: "core", T: sim.Millisecond, X: -0.5})
	if countCheck(a, "recorder") != 1 {
		t.Fatal("negative record not detected")
	}
	if a.recordedTotal != 0 {
		t.Fatal("negative record leaked into the total")
	}

	a = New("t")
	a.Observe(sim.Event{Kind: sim.KindRecord, Name: "device", T0: 2 * sim.Millisecond, T: sim.Millisecond, X: 0.5})
	if countCheck(a, "recorder") != 1 {
		t.Fatal("reversed record interval not detected")
	}
}

func TestViolationBoundAndErrSummary(t *testing.T) {
	a := New("bound")
	for i := 0; i < maxViolations+10; i++ {
		a.Observe(sim.Event{Kind: sim.KindRecord, Name: "core", T: sim.Millisecond, X: -1})
	}
	if got := len(a.Violations()); got != maxViolations {
		t.Fatalf("stored %d violations, want cap %d", got, maxViolations)
	}
	if a.dropped != 10 {
		t.Fatalf("dropped counter %d, want 10", a.dropped)
	}
	err := a.Err()
	if err == nil {
		t.Fatal("Err returned nil with violations present")
	}
	if !strings.Contains(err.Error(), "audit[bound]") {
		t.Fatalf("error missing label: %v", err)
	}
	// The summary includes the dropped count in the total.
	if !strings.Contains(err.Error(), "74 violation(s)") {
		t.Fatalf("error does not count dropped violations: %v", err)
	}
}

// TestDegradationAndStreamDetection feeds Observe malformed degradation,
// fault-injection and streaming observations and requires each to report
// exactly one violation under its check name.
func TestDegradationAndStreamDetection(t *testing.T) {
	cases := []struct {
		name  string
		ev    sim.Event
		check string
	}{
		{"unknown counter repair",
			sim.Event{Kind: sim.KindCounterFix, N: 3, Name: "rewind", T: sim.Millisecond}, "counter-fix"},
		{"rejected pair within threshold",
			sim.Event{Kind: sim.KindRecalReject, T: sim.Millisecond, X: -0.5, Y: 2}, "recalibration"},
		{"rejection against a non-positive threshold",
			sim.Event{Kind: sim.KindRecalReject, T: sim.Millisecond, X: 5, Y: 0}, "recalibration"},
		{"fallback without a reason",
			sim.Event{Kind: sim.KindRecalFallback, T: sim.Millisecond}, "recalibration"},
		{"fault without a site",
			sim.Event{Kind: sim.KindFault, T: sim.Millisecond, Class: "dropout"}, "fault-injection"},
		{"fault without a kind",
			sim.Event{Kind: sim.KindFault, T: sim.Millisecond, Name: "meter/chip"}, "fault-injection"},
		{"stream violation",
			sim.Event{Kind: sim.KindStreamViolation, T: sim.Second, Name: "stream-ledger", Detail: "drift"}, "stream-ledger"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New("t")
			a.Observe(tc.ev)
			if got := countCheck(a, tc.check); got != 1 || len(a.Violations()) != 1 {
				t.Fatalf("%d %q violations of %d total, want exactly one: %v",
					got, tc.check, len(a.Violations()), a.Violations())
			}
		})
	}
}
