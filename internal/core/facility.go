package core

import (
	"fmt"

	"powercontainers/internal/align"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// Approach selects the power attribution scheme, matching the three
// approaches Figure 8 compares.
type Approach int

const (
	// ApproachCoreOnly is Eq. 1: core-level events only (Approach #1).
	ApproachCoreOnly Approach = iota
	// ApproachChipShare is Eq. 2: plus attributed shared chip
	// maintenance power (Approach #2).
	ApproachChipShare
	// ApproachRecalibrated is Eq. 2 plus measurement-aligned online
	// recalibration (Approach #3); enable it with EnableRecalibration.
	ApproachRecalibrated
)

func (a Approach) String() string {
	switch a {
	case ApproachCoreOnly:
		return "core-only"
	case ApproachChipShare:
		return "chip-share"
	case ApproachRecalibrated:
		return "recalibrated"
	}
	return fmt.Sprintf("Approach(%d)", int(a))
}

// DefaultSampleInterval is the periodic counter sampling cadence: the paper
// uses roughly one maintenance operation per millisecond of non-halt
// execution as "sufficiently fine-grained for many accounting and control
// purposes" (§3.5).
const DefaultSampleInterval = sim.Millisecond

// DefaultMaintenanceEvents is the measured per-operation observer effect of
// one container maintenance operation (§3.5): 2948 cycles, 1656
// instructions, 16 floating point operations, 3 last-level cache
// references, and no measurable memory transactions.
var DefaultMaintenanceEvents = cpu.Counters{
	Cycles:       2948,
	Instructions: 1656,
	Float:        16,
	Cache:        3,
	Mem:          0,
}

// Config tunes the facility.
type Config struct {
	// Approach selects the attribution scheme (default chip-share).
	Approach Approach
	// CompensateObserver subtracts maintenance-operation event counts
	// from each sampling period (default on; DisableObserverComp turns
	// it off for the ablation).
	DisableObserverComp bool
	// UseOracleChipShare replaces the paper's synchronization-free Eq. 3
	// estimate with an oracle that knows exactly which sibling cores are
	// busy — the ablation baseline for the coordination-free design.
	UseOracleChipShare bool
	// DisableCounterRepair turns off the counter-fault degradation
	// responses (wraparound unwrap and lost-interrupt extrapolation) for
	// the ablation; corrupted counter deltas then flow through unrepaired.
	DisableCounterRepair bool
}

// coreState is the facility's per-core sampling baseline.
type coreState struct {
	valid    bool
	last     cpu.Counters
	lastTime sim.Time
	// lastM remembers the previous period's (observer-compensated,
	// capped) metrics so a period whose counters are unrecoverable —
	// lost overflow interrupts under a wrapping register — can be
	// reconstructed by capped extrapolation.
	lastM      model.Metrics
	lastMValid bool
}

// Facility is the power-container facility attached to one kernel.
type Facility struct {
	K *kernel.Kernel
	// Coeff is the current model; recalibration replaces it online.
	Coeff model.Coefficients
	// Background absorbs activity with no request binding.
	Background *Container
	// Observer sees attribution, lifecycle, counter-repair and budget
	// events (sim.KindPeriod, KindDevicePeriod, KindRetain, KindRelease,
	// KindCounterFix, KindBudgetThrottle); nil disables.
	// EnableRecalibration hands it to the recalibrator it builds.
	Observer sim.Observer

	cfg        Config
	perCore    []coreState
	metrics    *model.MetricSeries
	containers []*Container
	nextID     int

	cond    *Conditioner
	recal   *align.Recalibrator
	anomaly *AnomalyDetector
	hier    *Hierarchy
}

// Attach creates a facility, installs it as the kernel's monitor, and
// programs every core's overflow interrupt threshold.
func Attach(k *kernel.Kernel, coeff model.Coefficients, cfg Config) *Facility {
	f := &Facility{
		K:       k,
		Coeff:   coeff,
		cfg:     cfg,
		perCore: make([]coreState, len(k.Cores)),
		metrics: model.NewMetricSeries(power.RecorderInterval),
	}
	f.Background = f.newContainer("background", KindBackground)
	f.Background.retain() // immortal
	k.Monitor = f
	intervalSec := float64(DefaultSampleInterval) / float64(sim.Second)
	for _, c := range k.Cores {
		c.SetOverflowThreshold(c.FreqHz * intervalSec)
	}
	return f
}

// Metrics exposes the system-wide metric series (recalibration input and
// the modeled power trace source).
func (f *Facility) Metrics() *model.MetricSeries { return f.metrics }

// MetricsFloor returns the earliest time the facility can still touch in
// its metric series: the start of the oldest open sampling period (lost
// overflow interrupts stretch a period, so it can lie far back), the
// service start of the oldest in-flight device transfer, and the
// recalibrator's read floor. A period or transfer that has not begun yet
// starts at or after now.
func (f *Facility) MetricsFloor() sim.Time {
	floor := f.K.Now()
	for i := range f.perCore {
		if st := &f.perCore[i]; st.valid {
			floor = min(floor, st.lastTime)
		}
	}
	for _, d := range [...]*kernel.Device{f.K.Disk, f.K.Net} {
		if start, ok := d.InFlightStart(); ok {
			floor = min(floor, start)
		}
	}
	if f.recal != nil {
		floor = min(floor, f.recal.MetricsFloor())
	}
	return floor
}

// Containers returns every container ever created, including Background.
func (f *Facility) Containers() []*Container {
	return append([]*Container(nil), f.containers...)
}

// NumContainers returns how many containers have ever been created. With
// ContainerAt it lets an incremental consumer (the streaming engine) scan
// only containers born since its last visit instead of copying the whole
// ever-growing list every period.
func (f *Facility) NumContainers() int { return len(f.containers) }

// ContainerAt returns the i-th container in creation order.
func (f *Facility) ContainerAt(i int) *Container { return f.containers[i] }

// NewContainer creates a request container; the harness binds it to the
// request's first message via kernel.Inject.
func (f *Facility) NewContainer(label string) *Container {
	return f.newContainer(label, KindRequest)
}

// AttachHierarchy installs the tenant→service→request registry. Every
// container subsequently created with NewContainerIn is filed under it and
// charged at both aggregation levels; containers from plain NewContainer
// (and Background) stay flat.
func (f *Facility) AttachHierarchy(h *Hierarchy) {
	if f.hier != nil && f.hier != h {
		panic("core: facility already has a hierarchy attached")
	}
	f.hier = h
}

// Hierarchy returns the attached registry, or nil in flat mode.
func (f *Facility) Hierarchy() *Hierarchy { return f.hier }

// NewContainerIn creates a request container filed under tenant/service,
// registering either on first use. Requires AttachHierarchy.
func (f *Facility) NewContainerIn(tenant, service, label string) *Container {
	if f.hier == nil {
		panic("core: NewContainerIn requires AttachHierarchy")
	}
	c := f.newContainer(label, KindRequest)
	f.hier.Service(tenant, service).adopt(c)
	return c
}

func (f *Facility) newContainer(label string, kind Kind) *Container {
	f.nextID++
	c := &Container{ID: f.nextID, Label: label, Kind: kind}
	f.containers = append(f.containers, c)
	return c
}

// containerOf maps a task's binding to its container.
func (f *Facility) containerOf(t *kernel.Task) *Container {
	if t == nil || t.Ctx == nil {
		return f.Background
	}
	if c, ok := t.Ctx.(*Container); ok {
		return c
	}
	return f.Background
}

// TotalAccountedEnergyJ sums attributed energy over every container
// including Background — the aggregate the validation experiment compares
// against measured system energy (§4.2).
func (f *Facility) TotalAccountedEnergyJ() float64 {
	var sum float64
	for _, c := range f.containers {
		sum += c.EnergyJ()
	}
	return sum
}

// resetBaseline starts a fresh sampling period on a core, charging the
// maintenance operation that the (re)entry sample performs.
//
//pclint:hotpath
func (f *Facility) resetBaseline(c *cpu.Core) {
	st := &f.perCore[c.ID]
	st.last = f.K.ReadCounters(c.ID) // read before charging: the op lands in the new period
	st.lastTime = f.K.Now()
	st.valid = true
	f.K.ChargeMaintenance(c.ID, DefaultMaintenanceEvents)
}

// samplePeriod closes the current sampling period on core c, attributing
// its events and modeled energy to the container bound to task t. It is
// the context-switch sampling sweep: one counter read, one model
// evaluation and one container charge per period, with every per-period
// allocation waived explicitly below so hotalloc flags anything new.
//
//pclint:hotpath
func (f *Facility) samplePeriod(c *cpu.Core, t *kernel.Task) {
	st := &f.perCore[c.ID]
	now := f.K.Now()
	if !st.valid {
		f.resetBaseline(c)
		return
	}
	cur := f.K.ReadCounters(c.ID)
	wall := now - st.lastTime
	if wall > 0 {
		delta := cur.Sub(st.last)
		elapsedCycles := float64(wall) / float64(sim.Second) * c.FreqHz
		fixKind := ""
		if w := f.K.CounterWrapModulus(); w > 0 && !f.cfg.DisableCounterRepair {
			// A wrapped register makes cur < last look like a negative
			// delta: shift back up by the modulus (a single missed wrap).
			if delta.Cycles < 0 || delta.Instructions < 0 || delta.Float < 0 ||
				delta.Cache < 0 || delta.Mem < 0 {
				delta = unwrapDelta(delta, w)
				fixKind = "unwrap"
			}
			// A period spanning at least one full modulus (lost overflow
			// interrupts kept the sampler away) cannot be unwrapped
			// unambiguously — a whole-modulus span even yields a plausible
			// non-negative delta that silently lost w counts. Reconstruct
			// it from the previous period's rates, capped at full
			// occupancy.
			if elapsedCycles >= w && st.lastMValid {
				delta = extrapolateDelta(st.lastM, elapsedCycles)
				fixKind = "extrapolate"
			}
		}
		// Every period opens with exactly one maintenance operation (the
		// sample that started it). Extrapolated deltas derive from
		// already-compensated metrics; subtracting maintenance again would
		// double-count it.
		if fixKind != "extrapolate" && !f.cfg.DisableObserverComp {
			delta = delta.Sub(DefaultMaintenanceEvents).ClampNonNegative()
		}
		var m model.Metrics
		if elapsedCycles > 0 {
			m = model.Metrics{
				Core:  delta.Cycles / elapsedCycles,
				Ins:   delta.Instructions / elapsedCycles,
				Float: delta.Float / elapsedCycles,
				Cache: delta.Cache / elapsedCycles,
				Mem:   delta.Mem / elapsedCycles,
			}
		}
		if m.Core > 1 {
			m.Core = 1
		}
		if f.cfg.Approach != ApproachCoreOnly {
			if f.cfg.UseOracleChipShare {
				m.Chip = model.OracleChipShare(f.K.Spec, c.ID, m.Core, f.K)
			} else {
				m.Chip = model.ChipShare(f.K.Spec, f.K.Cores, c.ID, m.Core, f.K)
			}
		}
		c.PublishSample(m.Core)
		p := f.Coeff.EstimateCPU(m)
		if p < 0 {
			p = 0
		}
		chipP := f.Coeff.Chip * m.Chip
		if chipP < 0 || chipP > p {
			chipP = 0
		}
		seconds := float64(wall) / float64(sim.Second)
		cont := f.containerOf(t)
		name := "?"
		if t != nil {
			name = t.Name
		}
		cont.addPeriod(name, now, wall, delta, p*seconds, chipP*seconds, p, c.DutyFraction()) //pclint:allow hotalloc per-period container history growth, bounded by sample cadence not event count
		if cont.svc != nil {
			cont.svc.charge(wall, p*seconds, chipP*seconds)
		}
		if f.Observer != nil {
			f.Observer.Observe(sim.Event{Kind: sim.KindPeriod, Obj: cont, Name: name, T0: st.lastTime, T: now,
				X: p * seconds, Y: chipP * seconds, Z: m.Chip})
		}
		f.metrics.AddSpread(st.lastTime, now, m) //pclint:allow hotalloc 1ms-bucket metric series growth, bounded by the retained window in a stream and by elapsed sim time in a batch run
		f.hookAnomaly(t, p-chipP)                //pclint:allow hotalloc anomaly detector window growth, bounded by sample cadence
		if fixKind != "" && f.Observer != nil {
			f.Observer.Observe(sim.Event{Kind: sim.KindCounterFix, N: int64(c.ID), Name: fixKind, T: now})
		}
		st.lastM = m
		st.lastMValid = true
	}
	// The maintenance operation this sample performs opens the next
	// period; its events (injected after the counter read above) belong
	// to that period and are compensated there.
	st.last = cur
	st.lastTime = now
	f.K.ChargeMaintenance(c.ID, DefaultMaintenanceEvents)
}

// unwrapDelta repairs a counter delta whose minuend wrapped once: negative
// components gain the modulus back.
func unwrapDelta(d cpu.Counters, w float64) cpu.Counters {
	return cpu.Counters{
		Cycles:       unwrapOne(d.Cycles, w),
		Instructions: unwrapOne(d.Instructions, w),
		Float:        unwrapOne(d.Float, w),
		Cache:        unwrapOne(d.Cache, w),
		Mem:          unwrapOne(d.Mem, w),
	}
}

func unwrapOne(v, w float64) float64 {
	if v < 0 {
		return v + w
	}
	return v
}

// extrapolateDelta reconstructs an unrecoverable period's counter delta
// from the previous period's per-cycle rates, capped at full occupancy
// (Core ≤ 1): the best available estimate when lost overflow interrupts
// let the register wrap an unknown number of times.
func extrapolateDelta(m model.Metrics, elapsedCycles float64) cpu.Counters {
	core := m.Core
	if core > 1 {
		core = 1
	}
	if core < 0 {
		core = 0
	}
	return cpu.Counters{
		Cycles:       core * elapsedCycles,
		Instructions: m.Ins * elapsedCycles,
		Float:        m.Float * elapsedCycles,
		Cache:        m.Cache * elapsedCycles,
		Mem:          m.Mem * elapsedCycles,
	}
}

// SampleNow performs one container maintenance operation on a core
// immediately — reading the hardware counters, computing modeled power and
// updating the bound container's statistics — outside the periodic
// schedule. Management policies can use it for on-demand readings; the
// §3.5 overhead benchmarks measure its cost.
func (f *Facility) SampleNow(coreID int) {
	c := f.K.Cores[coreID]
	f.samplePeriod(c, f.K.RunningTask(coreID))
}

// RewindBaseline moves a core's sampling-period start back by d without
// touching the virtual clock. It exists so overhead benchmarks can measure
// the full maintenance-operation path (counter read, metric computation,
// model evaluation, container update) in a tight loop: pairing it with a
// direct Core.AdvanceBusy emulates one elapsed sampling period per
// iteration without driving the event loop.
func (f *Facility) RewindBaseline(coreID int, d sim.Time) {
	st := &f.perCore[coreID]
	if st.valid && st.lastTime >= d {
		st.lastTime -= d
	}
}

// ---- kernel.Monitor implementation ----

// OnInterrupt implements kernel.Monitor: periodic counter sampling plus
// conditioner reassessment of the running request.
func (f *Facility) OnInterrupt(c *cpu.Core, t *kernel.Task) {
	f.samplePeriod(c, t)
	if f.cond != nil {
		f.cond.adjust(c, f.containerOf(t))
	}
}

// OnSwitch implements kernel.Monitor: request context switches sample the
// outgoing task's counters and apply the incoming request's duty policy.
//
//pclint:hotpath
func (f *Facility) OnSwitch(c *cpu.Core, prev, next *kernel.Task) {
	if prev != nil {
		f.samplePeriod(c, prev)
	}
	if next != nil {
		if prev == nil {
			f.resetBaseline(c)
		}
		if f.cond != nil {
			f.cond.apply(c, f.containerOf(next))
		}
	} else {
		f.perCore[c.ID].valid = false
	}
}

// OnBind implements kernel.Monitor: a task adopting a new request context
// from a socket segment is a request context switch — pre-switch counters
// attribute to the old binding.
func (f *Facility) OnBind(t *kernel.Task, newCtx kernel.Context) {
	if core := t.Core(); core >= 0 {
		f.samplePeriod(f.K.Cores[core], t)
	}
	old := f.containerOf(t)
	f.releaseRef(old)
	if nc, ok := newCtx.(*Container); ok && nc != nil {
		f.retainRef(nc)
		if nc.traceEnabled {
			nc.addTrace(f.K.Now(), TraceBind, t.Name, "from "+old.Label)
		}
		// Re-apply conditioning for the new binding if running.
		if f.cond != nil {
			if core := t.Core(); core >= 0 {
				f.cond.apply(f.K.Cores[core], nc)
			}
		}
	}
}

// OnFork implements kernel.Monitor: the child inherits the parent's
// binding; the container gains a task reference.
func (f *Facility) OnFork(parent, child *kernel.Task) {
	if cont := f.containerOf(child); cont.traceEnabled {
		cont.addTrace(f.K.Now(), TraceFork, parent.Name, "forks "+child.Name)
	}
}

// OnExit implements kernel.Monitor: drop the exiting task's reference.
func (f *Facility) OnExit(t *kernel.Task) {
	cont := f.containerOf(t)
	cont.addTrace(f.K.Now(), TraceExit, t.Name, "")
	f.releaseRef(cont)
}

// OnTaskStart implements kernel.Monitor: account the new task reference.
func (f *Facility) OnTaskStart(t *kernel.Task) {
	f.retainRef(f.containerOf(t))
}

// retainRef and releaseRef route reference-count changes through the
// observer so lifecycle legality (§3.5) is checkable at runtime.
func (f *Facility) retainRef(c *Container) {
	c.retain()
	if f.Observer != nil {
		f.Observer.Observe(sim.Event{Kind: sim.KindRetain, Obj: c, T: f.K.Now()})
	}
}

func (f *Facility) releaseRef(c *Container) {
	c.release()
	if f.Observer != nil {
		f.Observer.Observe(sim.Event{Kind: sim.KindRelease, Obj: c, T: f.K.Now()})
	}
}

// OnIO implements kernel.Monitor: attribute device energy to the
// responsible request and record device utilization in the metric series.
func (f *Facility) OnIO(t *kernel.Task, dev kernel.DeviceKind, bytes int64, busy sim.Time, watts float64) {
	cont := f.containerOf(t)
	joules := watts * float64(busy) / float64(sim.Second)
	cont.DeviceEnergyJ += joules
	if cont.svc != nil {
		cont.svc.chargeDevice(joules)
	}
	if cont.traceEnabled {
		cont.addTrace(f.K.Now(), TraceIO, t.Name, fmt.Sprintf("%s %dB", dev, bytes))
	}
	var m model.Metrics
	if dev == kernel.DeviceDisk {
		m.Disk = 1
	} else {
		m.Net = 1
	}
	end := f.K.Now()
	start := end - busy
	if start < 0 {
		start = 0
	}
	if f.Observer != nil {
		f.Observer.Observe(sim.Event{Kind: sim.KindDevicePeriod, Obj: cont, T0: start, T: end, X: joules})
	}
	f.metrics.AddSpread(start, end, m)
}

var _ kernel.Monitor = (*Facility)(nil)
