package audit

import (
	"testing"

	"powercontainers/internal/cluster"
	"powercontainers/internal/core"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// closeTag returns the response-path snapshot a machine would report for a
// finished request.
func closeTag(tag cluster.ContainerTag, energyJ float64, cpu sim.Time) cluster.ContainerTag {
	tag.Machine = "node-0"
	tag.EnergyJ = energyJ
	tag.CPUTime = cpu
	return tag
}

func TestLedgerHookDetection(t *testing.T) {
	t.Run("clean open and close", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		l.Observer = a
		tag := l.Open("app", 0, 100*sim.Millisecond)
		if err := l.Close(closeTag(tag, 0.5, sim.Millisecond), 200*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("clean ledger flow flagged: %v", err)
		}
	})
	t.Run("double close", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		l.Observer = a
		tag := l.Open("app", 0, 100*sim.Millisecond)
		done := closeTag(tag, 0.5, sim.Millisecond)
		if err := l.Close(done, 200*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(done, 300*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("double close not detected")
		}
	})
	t.Run("open with non-zero usage", func(t *testing.T) {
		a := New("t")
		a.Observe(sim.Event{Kind: sim.KindLedgerOpen, Seq: 9, X: 1})
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("dirty open not detected")
		}
	})
	t.Run("close with negative usage", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		l.Observer = a
		tag := l.Open("app", 0, 0)
		if err := l.Close(closeTag(tag, -0.5, 0), sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("negative usage close not detected")
		}
	})
	t.Run("close without machine", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		l.Observer = a
		tag := l.Open("app", 0, 0)
		tag.EnergyJ = 0.5
		if err := l.Close(tag, sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("machineless close not detected")
		}
	})
	t.Run("drop after finish", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		l.Observer = a
		tag := l.Open("app", 0, 0)
		if err := l.Close(closeTag(tag, 0.5, sim.Millisecond), sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := l.Drop(tag.RequestID, 2*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("drop after finish not detected")
		}
	})
	t.Run("double drop", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		l.Observer = a
		tag := l.Open("app", 0, 0)
		if err := l.Drop(tag.RequestID, sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := l.Drop(tag.RequestID, 2*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("double drop not detected")
		}
	})
	t.Run("close after drop", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		l.Observer = a
		tag := l.Open("app", 0, 0)
		if err := l.Drop(tag.RequestID, sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(closeTag(tag, 0.5, sim.Millisecond), 2*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("close after drop not detected")
		}
	})
}

// completed builds the dispatcher-side completion record for one request.
func completed(tag cluster.ContainerTag, c *core.Container) cluster.CompletedRequest {
	return cluster.CompletedRequest{
		App:       tag.App,
		RequestID: tag.RequestID,
		Req: &server.Request{
			Cont:   c,
			Arrive: 100 * sim.Millisecond,
			Done:   200 * sim.Millisecond,
		},
	}
}

func TestCheckLedgerReconciliation(t *testing.T) {
	t.Run("small snapshot shortfall tolerated", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		tag := l.Open("app", 0, 100*sim.Millisecond)
		// Snapshot 0.95 J of a 1.0 J container: the final partial sampling
		// period landed after the response tag was taken.
		c := &core.Container{Kind: core.KindRequest, CPUEnergyJ: 1.0, CPUTime: 2 * sim.Millisecond}
		if err := l.Close(closeTag(tag, 0.95, sim.Millisecond), 200*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		a.CheckLedger(l, []cluster.CompletedRequest{completed(tag, c)}, sim.Second)
		if err := a.Err(); err != nil {
			t.Fatalf("tolerable shortfall flagged: %v", err)
		}
	})
	t.Run("ledger exceeds container", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		tag := l.Open("app", 0, 100*sim.Millisecond)
		c := &core.Container{Kind: core.KindRequest, CPUEnergyJ: 0.5, CPUTime: sim.Millisecond}
		if err := l.Close(closeTag(tag, 1.0, 2*sim.Millisecond), 200*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		a.CheckLedger(l, []cluster.CompletedRequest{completed(tag, c)}, sim.Second)
		// Energy and CPU-time snapshots both exceed the container, and the
		// aggregate reconciliation flags the over-attribution as well.
		if countCheck(a, "cluster-ledger") != 3 {
			t.Fatalf("inflated ledger snapshot: %d violations, want 3 (got %v)",
				countCheck(a, "cluster-ledger"), a.Violations())
		}
	})
	t.Run("aggregate shortfall beyond tolerance", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		tag := l.Open("app", 0, 100*sim.Millisecond)
		c := &core.Container{Kind: core.KindRequest, CPUEnergyJ: 1.0, CPUTime: 2 * sim.Millisecond}
		if err := l.Close(closeTag(tag, 0.5, sim.Millisecond), 200*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		a.CheckLedger(l, []cluster.CompletedRequest{completed(tag, c)}, sim.Second)
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("50% ledger shortfall not detected")
		}
	})
	t.Run("completion missing from ledger", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		c := &core.Container{Kind: core.KindRequest, CPUEnergyJ: 1.0}
		orphan := cluster.ContainerTag{RequestID: 404, App: "app"}
		a.CheckLedger(l, []cluster.CompletedRequest{completed(orphan, c)}, sim.Second)
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatal("ledger-less completion not detected")
		}
	})
	t.Run("entry both finished and dropped", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger() // no online audit: end-of-run sweep must catch it
		tag := l.Open("app", 0, 100*sim.Millisecond)
		c := &core.Container{Kind: core.KindRequest, CPUEnergyJ: 1.0, CPUTime: 2 * sim.Millisecond}
		if err := l.Close(closeTag(tag, 0.95, sim.Millisecond), 200*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := l.Drop(tag.RequestID, 300*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		a.CheckLedger(l, []cluster.CompletedRequest{completed(tag, c)}, sim.Second)
		if countCheck(a, "cluster-ledger") != 1 {
			t.Fatalf("finished+dropped entry not detected: %v", a.Violations())
		}
	})
	t.Run("unfinished requests ignored", func(t *testing.T) {
		a := New("t")
		l := cluster.NewLedger()
		rec := cluster.CompletedRequest{RequestID: 1, Req: &server.Request{Arrive: 100, Done: 0}}
		a.CheckLedger(l, []cluster.CompletedRequest{rec}, sim.Second)
		if err := a.Err(); err != nil {
			t.Fatalf("unfinished request flagged: %v", err)
		}
	})
}
