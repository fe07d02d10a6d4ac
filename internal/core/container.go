// Package core implements the paper's contribution: the power-container
// facility. It hooks the kernel's sampling points (counter-overflow
// interrupts, scheduler switches, request-context binding changes, fork,
// exit, I/O completion), attributes per-period hardware events to the bound
// request's container through the Eq. 2 multicore power model with the
// Eq. 3 synchronization-free chip-share estimate, compensates the observer
// effect of its own maintenance operations, maintains the system-wide
// metric series used for measurement alignment and online recalibration,
// and applies per-request CPU duty-cycle conditioning.
package core

import (
	"fmt"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// Kind classifies containers.
type Kind int

const (
	// KindRequest is an individual client request's container.
	KindRequest Kind = iota
	// KindBackground is the special container that absorbs activity with
	// no traceable request binding — e.g. the Google App Engine
	// background processing of §4.2.
	KindBackground
)

func (k Kind) String() string {
	if k == KindBackground {
		return "background"
	}
	return "request"
}

// StageStat accumulates a request's activity inside one server component
// (the per-stage power/energy annotations of Figure 4).
type StageStat struct {
	// Task is the component name (e.g. "httpd", "mysqld", "latex").
	Task string
	// CPUTime is the busy time attributed to this stage.
	CPUTime sim.Time
	// EnergyJ is the modeled CPU energy attributed to this stage.
	EnergyJ float64
}

// MeanPowerW is the stage's mean active power while executing.
func (s StageStat) MeanPowerW() float64 {
	if s.CPUTime <= 0 {
		return 0
	}
	return s.EnergyJ / (float64(s.CPUTime) / float64(sim.Second))
}

// TraceEventKind enumerates captured request-flow events.
type TraceEventKind string

// Trace event kinds.
const (
	TraceBind TraceEventKind = "bind" // context adopted from a socket segment
	TraceFork TraceEventKind = "fork"
	TraceExit TraceEventKind = "exit"
	TraceIO   TraceEventKind = "io"
)

// TraceEvent is one captured request-flow event (Figure 4's arrows).
type TraceEvent struct {
	T      sim.Time
	Kind   TraceEventKind
	Task   string
	Detail string
}

// TraceInterval is one attributed execution period of a traced request:
// the raw material for Figure 4's per-component timelines, where darkened
// portions indicate active execution.
type TraceInterval struct {
	Task       string
	Start, End sim.Time
}

// Container is one power container: the per-request accounting and control
// state of §3.3/§3.5. The real facility packs this into a 784-byte kernel
// structure freed when its task reference count reaches zero; here the
// Released flag marks that point while the statistics remain readable for
// experiments.
type Container struct {
	ID    int
	Label string
	Kind  Kind
	// Client identifies the principal the request belongs to, enabling
	// the client-oriented accounting of §1/§3.3 (e.g. billing the full
	// energy cost of web use to the users causing it).
	Client string

	// Tenant and Service name the hierarchy node the container is filed
	// under (empty in flat mode). Set by Facility.NewContainerIn; svc is
	// the resolved node, the nil-check gating every hierarchy code path
	// so flat-mode behavior stays bit-identical.
	Tenant  string
	Service string
	svc     *Service

	// Counters accumulates the hardware events attributed to the
	// container (after observer-effect compensation).
	Counters cpu.Counters
	// CPUTime is total attributed busy time across all cores and tasks.
	CPUTime sim.Time
	// CPUEnergyJ is modeled processor-side energy; ChipEnergyJ is the
	// portion of it attributed through the shared chip maintenance term
	// (the facility can decompose its own estimate); DeviceEnergyJ is
	// attributed disk/network energy.
	CPUEnergyJ    float64
	ChipEnergyJ   float64
	DeviceEnergyJ float64

	// LastPowerW is the modeled power of the most recent attribution
	// period — the signal the conditioner throttles on.
	LastPowerW float64

	// PowerTargetW is the per-request active power budget (0 = none).
	PowerTargetW float64

	// dutyLevel is the conditioner-assigned duty level (0 = unset: run
	// at full speed).
	dutyLevel int

	// dutyWeighted accumulates dutyFraction × seconds for the
	// time-averaged duty-cycle ratio of Figure 12; origEnergyJ is the
	// estimated unthrottled energy (observed power ÷ duty fraction,
	// using the paper's linear duty/power assumption).
	dutyWeighted float64
	origEnergyJ  float64

	refs     int
	Released bool

	stages       []StageStat
	traceEnabled bool
	Trace        []TraceEvent
	// Intervals records attributed execution periods when tracing is on.
	Intervals []TraceInterval
}

// EnergyJ is total attributed energy: CPU plus devices.
func (c *Container) EnergyJ() float64 { return c.CPUEnergyJ + c.DeviceEnergyJ }

// cpuSeconds converts attributed busy time to seconds.
func (c *Container) cpuSeconds() float64 { return float64(c.CPUTime) / float64(sim.Second) }

// perSecond divides a lifetime-accumulated quantity by the container's
// attributed busy seconds. Every mean-value accessor funnels through this
// one guard so the zero-duration policy is consistent: power-like
// quantities fall back to 0 (a container that never ran drew nothing),
// ratio-like quantities fall back to their identity (1 = unthrottled).
func (c *Container) perSecond(num, fallback float64) float64 {
	s := c.cpuSeconds()
	if s <= 0 {
		return fallback
	}
	return num / s
}

// MeanActivePowerW is the mean modeled power over the container's busy
// execution (the "mean request power" of Figure 6).
func (c *Container) MeanActivePowerW() float64 {
	return c.perSecond(c.CPUEnergyJ, 0)
}

// MeanIntrinsicPowerW is the mean modeled power excluding the attributed
// share of chip maintenance — the request's own activity-driven draw. A
// request running alone legitimately carries the whole maintenance power,
// so anomaly detection compares intrinsic power, which does not depend on
// what the sibling cores happen to be doing.
func (c *Container) MeanIntrinsicPowerW() float64 {
	return c.perSecond(c.CPUEnergyJ-c.ChipEnergyJ, 0)
}

// MeanDutyFraction is the time-averaged duty-cycle ratio applied to the
// container's execution (Figure 12's y-axis). A zero-duration container
// was never modulated, so the fallback is the unthrottled identity 1.
func (c *Container) MeanDutyFraction() float64 {
	return c.perSecond(c.dutyWeighted, 1)
}

// OriginalMeanPowerW estimates the container's mean power had it never been
// throttled (Figure 12's x-axis). Periods with a non-positive duty
// fraction contribute no unthrottled-energy estimate (see addPeriod), the
// same exclusion this mean's zero-duration fallback of 0 applies globally.
func (c *Container) OriginalMeanPowerW() float64 {
	return c.perSecond(c.origEnergyJ, 0)
}

// Stages returns per-component stage statistics in first-seen order.
func (c *Container) Stages() []StageStat {
	return append([]StageStat(nil), c.stages...)
}

// EnableTrace turns on request-flow event capture (Figure 4).
func (c *Container) EnableTrace() { c.traceEnabled = true }

// addPeriod folds one attribution period into the container.
func (c *Container) addPeriod(task string, end, wall sim.Time, ev cpu.Counters, energyJ, chipEnergyJ, powerW, dutyFrac float64) {
	c.Counters = c.Counters.Add(ev)
	c.CPUTime += wall
	c.CPUEnergyJ += energyJ
	c.ChipEnergyJ += chipEnergyJ
	c.LastPowerW = powerW
	seconds := float64(wall) / float64(sim.Second)
	c.dutyWeighted += dutyFrac * seconds
	// Zero-duty guard: the unthrottled-energy estimate divides by the duty
	// fraction (linear duty/power assumption, §3.4); a degenerate period
	// reporting dutyFrac <= 0 is excluded rather than poisoning the sum
	// with ±Inf — matching OriginalMeanPowerW's zero fallback.
	if dutyFrac > 0 {
		c.origEnergyJ += energyJ / dutyFrac
	}
	// A container sees a handful of stages (at most six across the
	// evaluation workloads), so a linear scan in first-seen order beats a
	// per-container map.
	i := 0
	for i < len(c.stages) && c.stages[i].Task != task {
		i++
	}
	if i == len(c.stages) {
		c.stages = append(c.stages, StageStat{Task: task})
	}
	c.stages[i].CPUTime += wall
	c.stages[i].EnergyJ += energyJ
	if c.traceEnabled {
		c.Intervals = append(c.Intervals, TraceInterval{Task: task, Start: end - wall, End: end})
	}
}

// addTrace records a flow event when tracing is enabled.
func (c *Container) addTrace(t sim.Time, kind TraceEventKind, task, detail string) {
	if !c.traceEnabled {
		return
	}
	c.Trace = append(c.Trace, TraceEvent{T: t, Kind: kind, Task: task, Detail: detail})
}

// retain adds a task reference.
func (c *Container) retain() { c.refs++ }

// release drops a task reference, marking the container's kernel state
// reclaimable at zero (§3.5's leak-freedom property). Background containers
// are immortal.
func (c *Container) release() {
	if c.Kind == KindBackground {
		return
	}
	c.refs--
	if c.refs < 0 {
		panic(fmt.Sprintf("core: container %d refcount below zero", c.ID))
	}
	if c.refs == 0 {
		c.Released = true
	}
}

// Refs returns the live task reference count.
func (c *Container) Refs() int { return c.refs }
