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
	EnableAudit()
	defer DisableAudit()

	m, err := NewMachine(cpu.SandyBridge, core.ApproachChipShare, 21)
	if err != nil {
		t.Fatal(err)
	}
	if m.Audit == nil {
		t.Fatal("EnableAudit did not attach an auditor to the machine")
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
	if vs := AuditViolations(); len(vs) != 0 {
		t.Fatalf("registry reports %d violations: %v", len(vs), vs)
	}
}

// TestAuditorObservesRecalibrator: an audited ApproachRecalibrated machine
// enables recalibration before its auditor attaches, and the auditor must
// still observe the recalibrator's rejections and fallbacks — on the
// chip-meter wiring (SandyBridge) and the wall-meter one (Westmere).
func TestAuditorObservesRecalibrator(t *testing.T) {
	for _, spec := range []cpu.MachineSpec{cpu.SandyBridge, cpu.Westmere} {
		m, err := Assembly{Audit: NewAuditCollector(true)}.NewMachine(spec, core.ApproachRecalibrated, 1)
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
	EnableAudit()
	defer DisableAudit()

	m, err := NewMachine(cpu.SandyBridge, core.ApproachChipShare, 23)
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
// RunOn, and requires every auditor they attached to have run its
// end-of-run checks: a machine that skips FinalizeAudit never checks
// conservation, lifecycle or the hierarchy, and nothing reads its online
// violations.
func TestAuditedExperimentsFinalizeEveryMachine(t *testing.T) {
	defer DisableAudit()
	const seed = 1
	runs := []struct {
		name string
		run  func() error
	}{
		{"intro", func() error { _, err := Intro(seed); return err }},
		{"fig1", func() error { _, err := Fig1(seed); return err }},
		{"fig2", func() error { _, err := Fig2(seed); return err }},
		{"fig4", func() error { _, err := Fig4(seed); return err }},
		{"fig10", func() error { _, err := Fig10(seed); return err }},
		{"fig11", func() error { _, err := Fig11(seed); return err }},
	}
	for _, r := range runs {
		EnableAudit()
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		c := DefaultAudit()
		if len(c.auditors) == 0 {
			t.Fatalf("%s attached no auditors", r.name)
		}
		for _, a := range c.auditors {
			if !a.Finalized() {
				t.Errorf("%s: auditor %s never finalized (%d auditors)", r.name, a.Label, len(c.auditors))
			}
		}
	}
}
