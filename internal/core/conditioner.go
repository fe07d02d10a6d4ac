package core

import (
	"sort"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// Conditioner implements §3.4's fair request power conditioning: each
// request gets an active power budget derived from the system target and
// the number of busy cores; requests exceeding their budget are throttled
// with per-core CPU duty-cycle modulation while normal requests run at full
// speed. Duty levels are reassessed after each periodic counter sampling
// (~once per millisecond) and applied whenever a core switches requests.
type Conditioner struct {
	// SystemTargetW is the whole-system active power target (e.g. the
	// 40 W cap of Figure 11).
	SystemTargetW float64

	f *Facility

	// scratch is the reusable worst-first ranking buffer; the conditioner
	// runs only on the simulation goroutine.
	scratch []*Container
}

// EnableConditioning activates fair power conditioning with the given
// system active power target and returns the conditioner.
func (f *Facility) EnableConditioning(systemTargetW float64) *Conditioner {
	f.cond = &Conditioner{SystemTargetW: systemTargetW, f: f}
	return f.cond
}

// budget returns the current per-request power budget: the system target
// divided evenly among busy cores, so a request running while siblings
// idle legitimately enjoys a larger budget (the unthrottled viruses at the
// top-right of Figure 12).
func (c *Conditioner) budget() float64 {
	busy := c.f.K.BusyCores()
	if busy < 1 {
		busy = 1
	}
	return c.SystemTargetW / float64(busy)
}

// perRequestTarget returns the budget for one container, honouring an
// explicit per-container target when set.
func (c *Conditioner) perRequestTarget(cont *Container) float64 {
	if cont.PowerTargetW > 0 {
		return cont.PowerTargetW
	}
	return c.budget()
}

// adjust reassesses a running request's duty level from its most recent
// modeled power (called after each periodic sample). Fair per-request
// conditioning (§3.4) runs first; hierarchical budget enforcement then
// composes with it by only ever pushing the level further down, so a
// tenant cap can tighten but never loosen the fair policy.
func (c *Conditioner) adjust(core *cpu.Core, cont *Container) {
	target := c.perRequestTarget(cont)
	lvl := cont.dutyLevel
	if lvl == 0 {
		lvl = core.DutyMax()
	}
	cur := cont.LastPowerW
	switch {
	case cur > target && lvl > 1:
		lvl--
	case lvl < core.DutyMax():
		// Step back up only if the projected power at the higher
		// level (linear in duty, §3.4) stays within budget.
		projected := cur * float64(lvl+1) / float64(lvl)
		if projected <= target {
			lvl++
		}
	}
	fair := lvl
	switch act, floor := c.tenantEnforce(cont); act {
	case enforceThrottle:
		// One duty step down per sample relative to the request's
		// current level — the same gradual-descent cadence the fair
		// policy uses — but never below the enforcement floor, and never
		// above what fair conditioning chose.
		base := cont.dutyLevel
		if base == 0 {
			base = core.DutyMax()
		}
		step := base - 1
		if step < floor {
			step = floor
		}
		if step < lvl {
			lvl = step
		}
	case enforceHold:
		// The tenant is over budget but this request is outside the
		// worst-first prefix: it keeps its current level. Without the
		// hold, fair step-ups on the tenant's other requests would
		// cancel every enforcement step-down and the tenant's draw
		// would never descend to the budget.
		base := cont.dutyLevel
		if base == 0 {
			base = core.DutyMax()
		}
		if lvl > base {
			lvl = base
		}
	}
	if lvl != cont.dutyLevel {
		cont.dutyLevel = lvl
		if lvl < fair {
			cont.svc.Tenant.budgetThrottles++
			if c.f.Observer != nil {
				c.f.Observer.Observe(sim.Event{Kind: sim.KindBudgetThrottle, Obj: cont,
					Name: cont.svc.Tenant.Name, N: int64(lvl), T: c.f.K.Now()})
			}
		}
	}
	c.apply(core, cont)
}

// enforceAction is tenant budget enforcement's verdict for one request.
type enforceAction int

const (
	// enforceNone leaves the request to fair conditioning alone.
	enforceNone enforceAction = iota
	// enforceHold freezes the request at its current duty level: its
	// tenant is over budget, but worse siblings are being throttled
	// first.
	enforceHold
	// enforceThrottle steps the request's duty level down.
	enforceThrottle
)

// tenantEnforce decides what hierarchical budget enforcement wants for
// this request right now, returning the duty floor to descend toward.
// An exhausted energy budget condemns every request of the tenant to the
// floor; a power budget throttles the tenant's worst requests first: the
// currently running requests are ranked by modeled power (descending, ID
// ascending as the deterministic tie-break) and the minimal prefix whose
// combined draw covers the overshoot is selected. Requests outside that
// prefix hold their level until the tenant is back under budget; every
// flat-mode container is left to fair conditioning alone.
func (c *Conditioner) tenantEnforce(cont *Container) (enforceAction, int) {
	if cont.svc == nil {
		return enforceNone, 0
	}
	ten := cont.svc.Tenant
	b := ten.Budget
	if b.EnergyJ > 0 && ten.acc.EnergyJ() >= b.EnergyJ {
		return enforceThrottle, 1
	}
	if b.PowerW <= 0 {
		return enforceNone, 0
	}
	running, sum := c.runningOf(ten)
	if sum <= b.PowerW {
		return enforceNone, 0
	}
	sort.Slice(running, func(i, j int) bool {
		if running[i].LastPowerW > running[j].LastPowerW {
			return true
		}
		if running[i].LastPowerW < running[j].LastPowerW {
			return false
		}
		return running[i].ID < running[j].ID
	})
	excess := sum - b.PowerW
	var covered float64
	for _, r := range running {
		if covered >= excess {
			break
		}
		if r == cont {
			return enforceThrottle, 1
		}
		covered += r.LastPowerW
	}
	return enforceHold, 0
}

// runningOf collects the tenant's currently running request containers in
// core-ID order with their summed modeled power — the synchronization-free
// live view enforcement ranks. The returned slice aliases the conditioner's
// scratch buffer.
func (c *Conditioner) runningOf(t *Tenant) ([]*Container, float64) {
	c.scratch = c.scratch[:0]
	var sum float64
	for _, core := range c.f.K.Cores {
		task := c.f.K.RunningTask(core.ID)
		if task == nil {
			continue
		}
		cont := c.f.containerOf(task)
		if cont.svc == nil || cont.svc.Tenant != t {
			continue
		}
		c.scratch = append(c.scratch, cont)
		sum += cont.LastPowerW
	}
	return c.scratch, sum
}

// apply programs the core's duty register for the request about to run
// (or continuing to run) on it.
func (c *Conditioner) apply(core *cpu.Core, cont *Container) {
	lvl := cont.dutyLevel
	if lvl == 0 {
		lvl = core.DutyMax()
	}
	if core.DutyLevel() != lvl {
		core.SetDutyLevel(lvl)
	}
}
