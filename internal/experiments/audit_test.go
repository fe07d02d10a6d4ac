package experiments

import (
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// TestAuditedRunIsClean runs a full machine workload with the auditor
// attached and requires a clean bill: energy conservation, lifecycle,
// socket tagging and sim ordering all hold on the real simulation paths.
func TestAuditedRunIsClean(t *testing.T) {
	c := NewAuditCollector(true)
	m, err := Exec{Audit: c}.NewMachine(cpu.SandyBridge, core.ApproachChipShare, 21)
	if err != nil {
		t.Fatal(err)
	}
	if m.Audit == nil {
		t.Fatal("an enabled collector did not attach an auditor to the machine")
	}
	if _, err := RunOn(m, RunSpec{
		Workload: workload.Stress{},
		Load:     HalfLoad,
		Window:   4 * sim.Second,
	}); err != nil {
		t.Fatalf("audited run: %v", err)
	}
	// RunOn already finalized; re-finalizing must stay clean too.
	if err := m.FinalizeAudit(); err != nil {
		t.Fatalf("audit violations on a clean run: %v", err)
	}
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("collector reports %d violations: %v", len(vs), vs)
	}
}

// TestAuditorObservesRecalibrator: an audited ApproachRecalibrated machine
// enables recalibration before its auditor attaches, and the auditor must
// still observe the recalibrator's rejections and fallbacks — on the
// chip-meter wiring (SandyBridge) and the wall-meter one (Westmere).
func TestAuditorObservesRecalibrator(t *testing.T) {
	for _, spec := range []cpu.MachineSpec{cpu.SandyBridge, cpu.Westmere} {
		m, err := Exec{Audit: NewAuditCollector(true)}.NewMachine(spec, core.ApproachRecalibrated, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := m.Fac.Recalibrator()
		if r == nil || m.Audit == nil {
			t.Fatalf("%s: recalibrator %v, auditor %v", spec.Name, r, m.Audit)
		}
		if r.Observer != sim.Observer(m.Audit) {
			t.Fatalf("%s: recalibrator observer %v, want the machine's auditor", spec.Name, r.Observer)
		}
	}
}

// TestAuditCatchesTamperedGroundTruth injects a bogus ground-truth energy
// record after a clean run and checks the reconciliation trips: the
// streamed record total no longer matches the recorder series, and the
// attributed energy no longer reconciles with ground truth.
func TestAuditCatchesTamperedGroundTruth(t *testing.T) {
	m, err := Exec{Audit: NewAuditCollector(true)}.NewMachine(cpu.SandyBridge, core.ApproachChipShare, 23)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOn(m, RunSpec{
		Workload: workload.Stress{},
		Load:     HalfLoad,
		Window:   2 * sim.Second,
	}); err != nil {
		t.Fatalf("audited run: %v", err)
	}
	// A record stream entry with no matching recorder series write is
	// exactly what a broken accounting path would produce.
	m.Audit.Observe(sim.Event{Kind: sim.KindRecord, Name: "core", T: sim.Millisecond, X: 1e6})
	err = m.FinalizeAudit()
	if err == nil {
		t.Fatal("tampered ground truth passed the audit")
	}
	if !strings.Contains(err.Error(), "recorder") {
		t.Fatalf("tampering not attributed to the recorder check: %v", err)
	}
}

// TestAuditedExperimentsFinalizeEveryMachine runs, with auditing on, the
// experiments that drive their machines by hand rather than through
// RunOn, plus fig6 and fig9, and requires every auditor they attached to
// have run its end-of-run checks: a machine that skips FinalizeAudit
// never checks conservation, lifecycle or the hierarchy, and nothing
// reads its online violations. Each runs through the registry with its
// own per-run collector, as pcbench runs it, and must audit into that
// collector: the process-default one, enabled here, must gain nothing.
func TestAuditedExperimentsFinalizeEveryMachine(t *testing.T) {
	prev := DefaultAudit()
	defer setDefaultAudit(prev)
	const seed = 1
	for _, id := range []string{"intro", "fig1", "fig2", "fig4", "fig6", "fig9", "fig10", "fig11"} {
		def := NewAuditCollector(true)
		setDefaultAudit(def)
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		ex := Exec{Audit: NewAuditCollector(true)}
		if _, err := e.Run(ex, seed); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := len(def.auditors); n != 0 {
			t.Errorf("%s attached %d auditors to the process-default collector", id, n)
		}
		c := ex.Audit
		if len(c.auditors) == 0 {
			t.Errorf("%s attached no auditors to its run's collector", id)
		}
		for _, a := range c.auditors {
			if !a.Finalized() {
				t.Errorf("%s: auditor %s never finalized (%d auditors)", id, a.Label, len(c.auditors))
			}
		}
	}
}
