package core

import (
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/sim"
)

// hotAct draws ~19 W on the test profile; coolAct ~10 W.
var (
	hotAct  = cpu.Activity{IPC: 1.5, LLCPC: 0.02, MemPC: 0.03}
	coolAct = cpu.Activity{IPC: 1}
)

func TestTenantPowerBudgetThrottlesWorstFirst(t *testing.T) {
	k, f := newRig(t, quadSpec, Config{Approach: ApproachChipShare})
	h := NewHierarchy()
	f.AttachHierarchy(h)
	h.Tenant("mallory").Budget = Budget{PowerW: 24}

	// mallory runs a ~20 W virus and a ~11.5 W worker (chip share
	// included): the sum ≈ 31.5 W exceeds the 24 W budget, and at the
	// enforcement equilibrium (virus near duty 5/8 ≈ 12.8 W) the virus is
	// still the tenant's worst request, so worst-first must throttle only
	// it. acme's request and the flat request see nothing at all.
	virus := f.NewContainerIn("mallory", "burn", "virus")
	worker := f.NewContainerIn("mallory", "burn", "worker")
	victim := f.NewContainerIn("acme", "web", "victim")
	flat := f.NewContainer("flat")

	k.Spawn("v", kernel.Script(kernel.Compute(400e6, hotAct)), virus)
	k.Spawn("m", kernel.Script(kernel.Compute(400e6, coolAct)), worker)
	k.Spawn("a", kernel.Script(kernel.Compute(400e6, coolAct)), victim)
	k.Spawn("f", kernel.Script(kernel.Compute(400e6, coolAct)), flat)
	f.EnableConditioning(1000) // fair conditioning never binds
	k.Eng.Run()

	if duty := virus.MeanDutyFraction(); duty > 0.85 {
		t.Fatalf("virus duty %.2f, expected budget throttling", duty)
	}
	if duty := worker.MeanDutyFraction(); duty < 0.99 {
		t.Fatalf("worst-first violated: mallory's cool worker throttled to %.2f", duty)
	}
	if duty := victim.MeanDutyFraction(); duty < 0.99 {
		t.Fatalf("victim tenant throttled to %.2f", duty)
	}
	if duty := flat.MeanDutyFraction(); duty < 0.99 {
		t.Fatalf("flat request throttled to %.2f", duty)
	}
	if h.Tenant("mallory").BudgetThrottles() == 0 {
		t.Fatal("no budget throttles recorded")
	}
	if h.Tenant("acme").BudgetThrottles() != 0 {
		t.Fatal("budget throttles charged to the wrong tenant")
	}
}

func TestTenantEnergyBudgetFloorsTenant(t *testing.T) {
	k, f := newRig(t, uniSpec, Config{Approach: ApproachChipShare})
	h := NewHierarchy()
	f.AttachHierarchy(h)
	h.Tenant("mallory").Budget = Budget{EnergyJ: 0.05}

	hog := f.NewContainerIn("mallory", "burn", "hog")
	k.Spawn("h", kernel.Script(kernel.Compute(400e6, hotAct)), hog)
	f.EnableConditioning(1000)
	k.Eng.Run()

	// The 0.05 J allowance is gone within a few milliseconds of ~19 W
	// draw; the rest of the request runs pinned to the duty floor.
	if duty := hog.MeanDutyFraction(); duty > 0.35 {
		t.Fatalf("exhausted tenant still at duty %.2f", duty)
	}
	if h.Tenant("mallory").BudgetThrottles() == 0 {
		t.Fatal("no budget throttles recorded")
	}
}

func TestBudgetEnforcementInactiveInFlatMode(t *testing.T) {
	// Same workload as TestConditionerThrottlesHighPowerRequest: with no
	// hierarchy configured, only fair conditioning acts and no budget
	// throttle is ever observed.
	k, f := newRig(t, uniSpec, Config{})
	kinds := kindCounter{}
	f.Observer = kinds
	f.EnableConditioning(10)
	hot := f.NewContainer("hot")
	k.Spawn("w", kernel.Script(kernel.Compute(200e6, hotAct)), hot)
	k.Eng.Run()
	if hot.MeanDutyFraction() > 0.85 {
		t.Fatal("fair conditioning stopped working")
	}
	if n := kinds[sim.KindBudgetThrottle]; n != 0 {
		t.Fatalf("flat mode observed %d budget throttles", n)
	}
}

// kindCounter counts the observed events of each kind.
type kindCounter map[sim.Kind]int

func (k kindCounter) Observe(e sim.Event) { k[e.Kind]++ }
