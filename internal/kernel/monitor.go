package kernel

import (
	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// Monitor receives the kernel events that power containers hook (§3.3). The
// facility in internal/core implements it; kernels without a facility use
// NopMonitor. All callbacks run synchronously inside the simulation loop.
type Monitor interface {
	// OnInterrupt fires at a counter-overflow interrupt on core c while
	// task t runs there. The monitor samples counters and may adjust the
	// core's duty level.
	OnInterrupt(c *cpu.Core, t *Task)

	// OnSwitch fires at a scheduler context switch on core c. prev is
	// the outgoing task (nil if the core was idle) whose counters must
	// be attributed before the switch; next is the incoming task (nil if
	// the core goes idle) whose policy should be applied to the core.
	OnSwitch(c *cpu.Core, prev, next *Task)

	// OnBind fires when t is about to adopt a new context from a socket
	// segment. If t is running, the monitor must sample its core and
	// attribute the pre-switch counters to the old binding. The kernel
	// applies the new binding after OnBind returns.
	OnBind(t *Task, newCtx Context)

	// OnFork fires after child is created, inheriting parent's binding.
	OnFork(parent, child *Task)

	// OnExit fires when t exits; the monitor releases its container
	// reference (containers free when their reference count drops to
	// zero, per §3.5).
	OnExit(t *Task)

	// OnIO fires when a device transfer completes for t: busy is the
	// device-busy interval and watts the device's draw during it, so the
	// monitor can attribute device energy to t's container.
	OnIO(t *Task, dev DeviceKind, bytes int64, busy sim.Time, watts float64)

	// OnTaskStart fires when a task is first created (spawn or fork).
	OnTaskStart(t *Task)
}

// FaultSurface is the kernel-side fault-injection seam (implemented by
// internal/faults without a package cycle: only cpu/sim types cross it).
// A nil surface — the default — injects nothing; the hot paths then pay
// only a nil check, exactly like the observer.
type FaultSurface interface {
	// WrapCounters corrupts a raw cumulative counter read for the given
	// core, e.g. reducing it modulo a narrow-MSR wraparound modulus.
	WrapCounters(coreID int, raw cpu.Counters) cpu.Counters
	// WrapModulus reports the wraparound modulus WrapCounters applies,
	// so monitors can unwrap deltas; 0 means counters are not wrapped.
	WrapModulus() float64
	// DropInterrupt reports whether this overflow-interrupt delivery is
	// lost. The kernel still clears the overflow latch either way — the
	// hardware condition resets; only the notification is dropped.
	DropInterrupt(coreID int, now sim.Time) bool
	// DropInjectTag reports whether an externally injected segment loses
	// its container tag at the listener boundary.
	DropInjectTag(now sim.Time) bool
	// DropSendTag reports whether an in-flight send loses its tag.
	DropSendTag(now sim.Time) bool
}

// NopMonitor ignores every event.
type NopMonitor struct{}

// OnInterrupt implements Monitor.
func (NopMonitor) OnInterrupt(*cpu.Core, *Task) {}

// OnSwitch implements Monitor.
func (NopMonitor) OnSwitch(*cpu.Core, *Task, *Task) {}

// OnBind implements Monitor.
func (NopMonitor) OnBind(*Task, Context) {}

// OnFork implements Monitor.
func (NopMonitor) OnFork(*Task, *Task) {}

// OnExit implements Monitor.
func (NopMonitor) OnExit(*Task) {}

// OnIO implements Monitor.
func (NopMonitor) OnIO(*Task, DeviceKind, int64, sim.Time, float64) {}

// OnTaskStart implements Monitor.
func (NopMonitor) OnTaskStart(*Task) {}

var _ Monitor = NopMonitor{}
