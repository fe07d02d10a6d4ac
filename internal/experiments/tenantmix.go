package experiments

import (
	"fmt"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
	"powercontainers/internal/workload"
)

// TenantMixBudgetW is the power budget imposed on the virus tenant in the
// budgeted arm. Two closed-loop viruses draw roughly 19 W unthrottled on
// Westmere, so the budget binds hard while staying far above the two
// requests' duty-floor draw — the regime where worst-first enforcement
// dithers tightly around the cap.
const TenantMixBudgetW = 12

// tenantMix window bounds: the virtual measurement window over which
// per-tenant attributed power, victim latency and victim energy are taken.
const (
	tenantMixWarmup = 2 * sim.Second
	tenantMixEnd    = 10 * sim.Second
)

// TenantMixCell is one arm of the multi-tenant isolation experiment.
type TenantMixCell struct {
	// Arm is "solo" (victim tenant alone), "mix" (virus tenant added,
	// no budget) or "budgeted" (virus tenant under TenantMixBudgetW).
	Arm string
	// BudgetW is the virus tenant's power budget (0 = none).
	BudgetW float64
	// VictimW / VirusW are the tenants' attributed active power over the
	// measurement window, from the hierarchy accumulators.
	VictimW float64
	VirusW  float64
	// VictimLatencyMs is the mean response time of victim requests
	// completed in the window.
	VictimLatencyMs float64
	// VictimEnergyMJ is the mean attributed energy per completed victim
	// request in the window, in millijoules.
	VictimEnergyMJ float64
	// VictimIntrinsicMJ is the chip-share-free portion of VictimEnergyMJ:
	// the victim's own activity energy. The chip-maintenance share a
	// request is apportioned legitimately shrinks when more cores are
	// active (Eq. 3), so intrinsic energy is the isolation metric — it
	// must not move when a virus tenant appears.
	VictimIntrinsicMJ float64
	// VictimRequests counts the victim completions in the window.
	VictimRequests int
	// BudgetThrottles counts enforcement decisions against the virus
	// tenant.
	BudgetThrottles uint64
}

// TenantMixResult reports the three-arm grid.
type TenantMixResult struct {
	Cells []TenantMixCell
}

// tenantMixRun executes one arm. Every arm uses the same seed, so the
// victim tenant's arrival process and request parameters are identical
// across arms (the virus deployment draws from independent rng forks):
// comparing the victim's latency and energy across arms isolates the
// interference the virus tenant actually causes.
func tenantMixRun(ex Exec, arm string, seed uint64) (TenantMixCell, error) {
	m, err := ex.NewMachine(cpu.Westmere, core.ApproachChipShare, seed)
	if err != nil {
		return TenantMixCell{}, err
	}
	h := core.NewHierarchy()
	m.Fac.AttachHierarchy(h)
	cell := TenantMixCell{Arm: arm}
	if arm == "budgeted" {
		cell.BudgetW = TenantMixBudgetW
		h.Tenant("mallory").Budget = core.Budget{PowerW: TenantMixBudgetW}
	}

	// Victim tenant: the GAE Vosao application at a light open-loop load,
	// filed under acme/web.
	victim := m.Deploy(workload.GAE{})
	victim.Gen.ServiceFor = func(string) (string, string) { return "acme", "web" }
	t0, t1 := tenantMixWarmup, tenantMixEnd
	victim.DriveFrac(0.3, t1)

	// Virus tenant: two closed-loop clients of pure power viruses, filed
	// under mallory/burn (absent in the solo arm).
	if arm != "solo" {
		vdep := workload.GAE{VirusLoadFraction: 1, DisableBackground: true}.Deploy(m.K, m.Rng.Fork(12))
		vgen := server.NewLoadGen(m.K, m.Fac, vdep)
		vgen.ServiceFor = func(string) (string, string) { return "mallory", "burn" }
		vgen.RunClosedLoop(2, t1)
	}

	// A far-above-draw system target keeps §3.4 fair conditioning from
	// ever binding: whatever throttling happens is budget enforcement.
	m.Fac.EnableConditioning(1e6)

	var acme0, mallory0 core.Usage
	m.Eng.At(t0, func() {
		acme0 = h.Tenant("acme").Usage()
		mallory0 = h.Tenant("mallory").Usage()
	})
	var acme1, mallory1 core.Usage
	m.Eng.At(t1, func() {
		acme1 = h.Tenant("acme").Usage()
		mallory1 = h.Tenant("mallory").Usage()
	})
	m.Eng.RunUntil(t1 + 2*sim.Second)
	if err := m.FinalizeAudit(); err != nil {
		return TenantMixCell{}, err
	}

	windowSec := float64(t1-t0) / float64(sim.Second)
	cell.VictimW = (acme1.EnergyJ() - acme0.EnergyJ()) / windowSec
	cell.VirusW = (mallory1.EnergyJ() - mallory0.EnergyJ()) / windowSec
	cell.BudgetThrottles = h.Tenant("mallory").BudgetThrottles()

	var lat, energy, intrinsic stats.Sample
	for _, r := range victim.Gen.Completed() {
		if !r.Finished() || r.Done < t0 || r.Done >= t1 || r.Cont == nil {
			continue
		}
		lat.Observe(float64(r.ResponseTime()) / float64(sim.Millisecond))
		energy.Observe(1e3 * r.Cont.EnergyJ())
		intrinsic.Observe(1e3 * (r.Cont.EnergyJ() - r.Cont.ChipEnergyJ))
	}
	cell.VictimRequests = lat.Count()
	cell.VictimLatencyMs = lat.Mean()
	cell.VictimEnergyMJ = energy.Mean()
	cell.VictimIntrinsicMJ = intrinsic.Mean()
	return cell, nil
}

// tenantMixPlan decomposes the experiment into one job per arm. Every arm
// derives the same per-experiment seed, so the victim trace is common.
func tenantMixPlan(ex Exec, seed uint64) *runner.Plan {
	cellSeed := runner.SeedFor(seed, "tenantmix")
	plan := &runner.Plan{}
	for _, arm := range []string{"solo", "mix", "budgeted"} {
		arm := arm
		plan.Add("tenantmix/"+arm, func() (any, error) {
			cell, err := tenantMixRun(ex, arm, cellSeed)
			if err != nil {
				return nil, fmt.Errorf("tenantmix/%s: %w", arm, err)
			}
			return cell, nil
		})
	}
	return plan
}

// TenantMixEx runs the multi-tenant isolation experiment: a victim tenant
// under light load, a virus tenant hammering the machine, and the same mix
// with the virus tenant under a power budget. The budgeted arm must cap
// the virus tenant near its budget while leaving the victim's latency and
// per-request energy at their solo values.
func TenantMixEx(ex Exec, seed uint64) (*TenantMixResult, error) {
	cells, err := runner.Collect[TenantMixCell](tenantMixPlan(ex, seed), ex.Jobs)
	if err != nil {
		return nil, err
	}
	return &TenantMixResult{Cells: cells}, nil
}

// Cell returns the named arm.
func (r *TenantMixResult) Cell(arm string) (TenantMixCell, bool) {
	for _, c := range r.Cells {
		if c.Arm == arm {
			return c, true
		}
	}
	return TenantMixCell{}, false
}

// Render prints the three arms side by side.
func (r *TenantMixResult) Render() string {
	t := &Table{
		Title:  "tenantmix: per-tenant budget enforcement under a virus tenant (Westmere)",
		Header: []string{"arm", "budget", "victim W", "virus W", "victim ms", "victim mJ/req", "intrinsic mJ", "requests", "throttles"},
		Caption: "victim = acme/web (GAE Vosao, open loop); virus = mallory/burn (2 closed-loop\n" +
			"power viruses); budgeted arm caps mallory's attributed power at its budget while\n" +
			"the victim's latency and intrinsic energy stay at their solo values (total mJ/req\n" +
			"moves only by the Eq. 3 chip-share dilution more active cores legitimately cause)",
	}
	for _, c := range r.Cells {
		budget := "—"
		if c.BudgetW > 0 {
			budget = w1(c.BudgetW)
		}
		t.AddRow(c.Arm, budget, w1(c.VictimW), w1(c.VirusW),
			fmt.Sprintf("%.2f ms", c.VictimLatencyMs),
			fmt.Sprintf("%.1f mJ", c.VictimEnergyMJ),
			fmt.Sprintf("%.1f mJ", c.VictimIntrinsicMJ),
			fmt.Sprintf("%d", c.VictimRequests),
			fmt.Sprintf("%d", c.BudgetThrottles))
	}
	return t.String()
}
