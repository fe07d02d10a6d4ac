package audit

import (
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

var hierSpec = cpu.MachineSpec{
	Name: "Quad", Chips: 1, CoresPerChip: 4, FreqHz: 1e9, DutyLevels: 8,
}

var hierProfile = power.TrueProfile{
	MachineIdleW: 40, PkgIdleW: 2, ChipMaintW: 6, CoreW: 8, InsW: 2,
	FloatW: 1, CacheW: 100, MemW: 200, DiskW: 1.7, NetW: 5.8,
}

var hierCoeff = model.Coefficients{
	IdleW: 40, Core: 8, Ins: 2, Float: 1, Cache: 100, Mem: 200,
	Chip: 6, Disk: 1.7, Net: 5.8, IncludesChipShare: true,
}

// hierMachine assembles an audited machine with an attached hierarchy and
// one budgeted tenant running a hot request next to a victim tenant.
func hierMachine(t *testing.T) (*kernel.Kernel, *core.Facility, *core.Hierarchy, *Auditor) {
	t.Helper()
	eng := sim.NewEngine()
	k, err := kernel.New("hier", hierSpec, hierProfile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := core.Attach(k, hierCoeff, core.Config{Approach: core.ApproachChipShare})
	a := New("hier")
	a.AttachMachine(f)
	h := core.NewHierarchy()
	f.AttachHierarchy(h)
	return k, f, h, a
}

// TestHierarchyConservationCleanRun drives a mixed multi-tenant workload —
// budget enforcement active, devices in play, a flat container alongside —
// and requires a clean audit: the conservation checker (Σ requests =
// service, Σ services = tenant, within 1e-9) and the budget-enforcement
// invariants must all hold on a healthy machine.
func TestHierarchyConservationCleanRun(t *testing.T) {
	k, f, h, a := hierMachine(t)
	h.Tenant("mallory").Budget = core.Budget{PowerW: 15}

	virus := f.NewContainerIn("mallory", "burn", "virus")
	web := f.NewContainerIn("acme", "web", "w")
	db := f.NewContainerIn("acme", "db", "d")
	flat := f.NewContainer("flat")

	hot := cpu.Activity{IPC: 1.5, LLCPC: 0.02, MemPC: 0.03}
	cool := cpu.Activity{IPC: 1}
	k.Spawn("v", kernel.Script(kernel.OpCompute{BaseCycles: 300e6, Act: hot}), virus)
	k.Spawn("w", kernel.Script(kernel.OpCompute{BaseCycles: 100e6, Act: cool}, kernel.OpDisk{Bytes: 2e6}), web)
	k.Spawn("d", kernel.Script(kernel.OpCompute{BaseCycles: 50e6, Act: cool}), db)
	k.Spawn("f", kernel.Script(kernel.OpCompute{BaseCycles: 50e6, Act: cool}), flat)
	f.EnableConditioning(1000)
	k.Eng.Run()

	if err := a.FinalizeMachine(); err != nil {
		t.Fatalf("clean hierarchical run flagged: %v", err)
	}
	if a.BudgetThrottles() == 0 {
		t.Fatal("budgeted virus produced no enforcement decisions")
	}
	if virus.MeanDutyFraction() > 0.85 {
		t.Fatal("virus not throttled — enforcement inert")
	}
}

// TestHierarchyConservationDetectsDrift corrupts one request's ledger after
// the run (energy added to the container but not the service accumulator)
// and expects the conservation checker to fire.
func TestHierarchyConservationDetectsDrift(t *testing.T) {
	k, f, _, a := hierMachine(t)
	c := f.NewContainerIn("acme", "web", "w")
	k.Spawn("w", kernel.Script(kernel.OpCompute{BaseCycles: 50e6, Act: cpu.Activity{IPC: 1}}), c)
	k.Eng.Run()

	c.CPUEnergyJ += 0.5 // bypasses Service.charge: Σ requests ≠ service
	a.FinalizeMachine()
	if countCheck(a, "hierarchy") == 0 {
		t.Fatal("hierarchy drift not detected")
	}
}

func TestBudgetThrottleHookDetection(t *testing.T) {
	t.Run("tenant mismatch", func(t *testing.T) {
		a := New("t")
		c := &core.Container{ID: 1, Label: "r", Tenant: "acme", Service: "web"}
		a.Observe(sim.Event{Kind: sim.KindBudgetThrottle, Obj: c, Name: "mallory", N: 2, T: sim.Millisecond})
		if countCheck(a, "budget-enforcement") == 0 {
			t.Fatal("cross-tenant throttle not detected")
		}
	})
	t.Run("illegal level", func(t *testing.T) {
		a := New("t")
		c := &core.Container{ID: 1, Label: "r", Tenant: "acme", Service: "web"}
		a.Observe(sim.Event{Kind: sim.KindBudgetThrottle, Obj: c, Name: "acme", N: 0, T: sim.Millisecond})
		if countCheck(a, "budget-enforcement") == 0 {
			t.Fatal("duty level 0 not detected")
		}
	})
	t.Run("unbudgeted tenant", func(t *testing.T) {
		_, f, h, a := hierMachine(t)
		c := f.NewContainerIn("acme", "web", "r")
		_ = h.Tenant("acme") // registered, but no budget
		a.Observe(sim.Event{Kind: sim.KindBudgetThrottle, Obj: c, Name: "acme", N: 2, T: sim.Millisecond})
		if countCheck(a, "budget-enforcement") == 0 {
			t.Fatal("unbudgeted throttle not detected")
		}
	})
	t.Run("unregistered tenant", func(t *testing.T) {
		_, f, _, a := hierMachine(t)
		c := f.NewContainer("r")
		c.Tenant, c.Service = "ghost", "svc"
		a.Observe(sim.Event{Kind: sim.KindBudgetThrottle, Obj: c, Name: "ghost", N: 2, T: sim.Millisecond})
		if countCheck(a, "budget-enforcement") == 0 {
			t.Fatal("unregistered tenant throttle not detected")
		}
	})
}

// TestUnregisteredContainerTagDetected plants a container whose
// tenant/service tag resolves to nothing in the hierarchy.
func TestUnregisteredContainerTagDetected(t *testing.T) {
	k, f, _, a := hierMachine(t)
	c := f.NewContainer("r")
	c.Tenant, c.Service = "ghost", "svc"
	k.Eng.Run()
	a.FinalizeMachine()
	if countCheck(a, "hierarchy") == 0 {
		t.Fatal("dangling tenant tag not detected")
	}
}

// TestFlatMachineSkipsHierarchyChecks: no hierarchy attached — finalize
// stays clean and cheap.
func TestFlatMachineSkipsHierarchyChecks(t *testing.T) {
	eng := sim.NewEngine()
	k, err := kernel.New("flat", hierSpec, hierProfile, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := core.Attach(k, hierCoeff, core.Config{Approach: core.ApproachChipShare})
	a := New("flat")
	a.AttachMachine(f)
	c := f.NewContainer("r")
	k.Spawn("w", kernel.Script(kernel.OpCompute{BaseCycles: 50e6, Act: cpu.Activity{IPC: 1}}), c)
	eng.Run()
	if err := a.FinalizeMachine(); err != nil {
		t.Fatalf("flat machine flagged: %v", err)
	}
}
