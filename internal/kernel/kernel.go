package kernel

import (
	"fmt"

	"powercontainers/internal/cpu"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// DefaultQuantum is the scheduler time slice.
const DefaultQuantum = 1 * sim.Millisecond

// Kernel simulates one machine: its cores, scheduler, sockets, devices and
// ground-truth energy recorder. Multiple kernels may share one sim.Engine
// to form a cluster on a single virtual timeline.
type Kernel struct {
	Eng     *sim.Engine
	Spec    cpu.MachineSpec
	Cores   []*cpu.Core
	Rec     *power.Recorder
	Monitor Monitor
	Disk    *Device
	Net     *Device

	// Observer sees socket segment flow (sim.KindSockEnqueue and
	// sim.KindSockDeliver): every buffered byte must carry exactly one
	// per-segment context tag, delivered in FIFO order per buffer (§3.3).
	// A direct handoff to a waiting receiver reports an enqueue
	// immediately followed by a deliver of the same segment. Nil — the
	// default — disables observation; the hot paths then pay only a nil
	// check.
	Observer sim.Observer

	// Faults, when non-nil, injects counter corruption, lost overflow
	// interrupts, and socket-tag loss (internal/faults). Nil — the
	// default — injects nothing.
	Faults FaultSurface

	// PerSegmentTagging selects the paper's safe per-segment socket
	// context tagging (true, the default) or the naive single-tag-per-
	// socket scheme it warns against (false; ablation only).
	PerSegmentTagging bool

	// TrapUserTransfers makes user-level request stage transfers
	// (UserStage) kernel-observable by trapping accesses to the
	// application's critical synchronization data structures — the
	// §3.3 future-work extension. Off by default, matching the paper's
	// published facility.
	TrapUserTransfers bool

	// Quantum is the scheduler time slice.
	Quantum sim.Time

	name     string
	segSeq   uint64 // observation-only segment identity counter
	running  []*Task
	runq     [][]*Task
	segStart []sim.Time
	segBusy  []bool // a segment-end event is pending for the core
	chipBusy []int
	nextPID  int
	tasks    []*Task

	// segEnd holds one pre-built segment-end callback per core, so the
	// scheduler's hottest path (runCore arming the next execution
	// segment) schedules timers without allocating a closure per
	// segment.
	segEnd []func()

	// maintEv/maintJoules memoize ChargeMaintenance's model evaluation:
	// the facility charges its one fixed per-operation event vector on
	// every sample, so the observer energy is a per-core constant that
	// is recomputed only when a different vector arrives.
	maintEv     *cpu.Counters
	maintJoules []float64 // per core; 0 means not yet computed
}

// New builds a machine from its spec and hidden ground-truth profile. The
// monitor may be nil, in which case events are discarded.
func New(name string, spec cpu.MachineSpec, profile power.TrueProfile, eng *sim.Engine, mon Monitor) (*Kernel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("kernel: nil engine")
	}
	if mon == nil {
		mon = NopMonitor{}
	}
	k := &Kernel{
		Eng:               eng,
		Spec:              spec,
		Rec:               power.NewRecorder(spec, profile),
		Monitor:           mon,
		Disk:              NewDisk(profile.DiskW),
		Net:               NewNIC(profile.NetW),
		PerSegmentTagging: true,
		Quantum:           DefaultQuantum,
		name:              name,
		running:           make([]*Task, spec.Cores()),
		runq:              make([][]*Task, spec.Cores()),
		segStart:          make([]sim.Time, spec.Cores()),
		segBusy:           make([]bool, spec.Cores()),
		chipBusy:          make([]int, spec.Chips),
	}
	for i := 0; i < spec.Cores(); i++ {
		k.Cores = append(k.Cores, cpu.NewCore(i, spec))
	}
	k.segEnd = make([]func(), spec.Cores())
	for c := range k.segEnd {
		c := c
		k.segEnd[c] = func() { k.onSegmentEnd(c) }
	}
	k.maintJoules = make([]float64, spec.Cores())
	return k, nil
}

// Name returns the machine's diagnostic name.
func (k *Kernel) Name() string { return k.name }

// Now returns the shared virtual time.
func (k *Kernel) Now() sim.Time { return k.Eng.Now() }

// Tasks returns every task ever created, in PID order.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// ReadCounters stores in *dst the cumulative counters of a core as the
// monitoring facility observes them: the raw hardware values, routed
// through the fault surface (which may wrap them like a narrow MSR) when
// one is installed. It fills the caller's vector rather than returning
// one, so the sampling sweep reads the five counters without moving them
// through the stack.
func (k *Kernel) ReadCounters(core int, dst *cpu.Counters) {
	*dst = k.Cores[core].Counters()
	if k.Faults != nil {
		*dst = k.Faults.WrapCounters(core, *dst)
	}
}

// CounterWrapModulus reports the fault surface's counter wraparound
// modulus, or 0 when counters are delivered unwrapped.
func (k *Kernel) CounterWrapModulus() float64 {
	if k.Faults != nil {
		return k.Faults.WrapModulus()
	}
	return 0
}

// CoreIdle reports whether the OS is currently scheduling the idle task on
// the given core — the check Eq. 3 uses to treat stale sibling samples as
// zero activity. The scheduler mirrors it onto each core's Busy flag, which
// is what the facility's chip-share estimate reads.
func (k *Kernel) CoreIdle(core int) bool { return k.running[core] == nil }

// RunningTask returns the task currently on the core, or nil.
func (k *Kernel) RunningTask(core int) *Task { return k.running[core] }

// BusyCores returns the number of cores currently running a task.
func (k *Kernel) BusyCores() int {
	n := 0
	for _, t := range k.running {
		if t != nil {
			n++
		}
	}
	return n
}

// Spawn creates a top-level task running prog with the given initial
// context binding and makes it runnable.
func (k *Kernel) Spawn(name string, prog Program, ctx Context) *Task {
	t := k.newTask(name, prog, ctx, nil)
	k.Monitor.OnTaskStart(t)
	k.makeRunnable(t)
	return t
}

func (k *Kernel) newTask(name string, prog Program, ctx Context, parent *Task) *Task {
	k.nextPID++
	t := &Task{
		PID:    k.nextPID,
		Name:   name,
		Ctx:    ctx,
		state:  TaskReady,
		core:   -1,
		prog:   prog,
		parent: parent,
	}
	k.tasks = append(k.tasks, t)
	return t
}

// Inject delivers an external message (a new client request or a
// cross-machine hop) to a listener, tagged with the given context and
// carrying an opaque payload.
func (k *Kernel) Inject(l *Listener, bytes int, ctx Context, payload any) {
	if k.Faults != nil && k.Faults.DropInjectTag(k.Now()) {
		ctx = loseTag(ctx)
	}
	if l.waiting.len() > 0 {
		w := l.waiting.pop()
		w.LastRecv = payload
		if k.Observer != nil {
			seg := segment{bytes: bytes, ctx: ctx, seq: k.nextSegSeq()}
			k.Observer.Observe(k.segEvent(sim.KindSockEnqueue, l, seg))
			k.Observer.Observe(k.segEvent(sim.KindSockDeliver, l, seg))
		}
		k.applyBinding(w, ctx)
		k.wake(w)
		return
	}
	seg := segment{bytes: bytes, ctx: ctx, payload: payload}
	if k.Observer != nil {
		seg.seq = k.nextSegSeq()
		k.Observer.Observe(k.segEvent(sim.KindSockEnqueue, l, seg))
	}
	l.segs.push(seg)
}

// Rebind changes a task's context binding through the monitor, exactly as
// if a message tagged with ctx had been read: pre-switch counters attribute
// to the old binding first. Server workers use it to unbind between
// requests.
func (k *Kernel) Rebind(t *Task, ctx Context) { k.applyBinding(t, ctx) }

// ---- scheduling core ----

// makeRunnable places a ready task: onto an idle core if one exists
// (preferring the chip with the fewest busy cores, which reproduces the
// spread-across-sockets behaviour of Figure 1), otherwise onto the shortest
// run queue.
func (k *Kernel) makeRunnable(t *Task) {
	if t.state != TaskReady {
		panic(fmt.Sprintf("kernel: makeRunnable on %v", t)) //pclint:allow hotalloc panic-path formatting on an invariant violation
	}
	best := -1
	bestBusy := 0
	for c := range k.Cores {
		if k.running[c] != nil {
			continue
		}
		busy := k.chipBusy[k.Spec.ChipOf(c)]
		if best == -1 || busy < bestBusy {
			best, bestBusy = c, busy
		}
	}
	if best >= 0 {
		k.enterCore(best, t)
		k.runCore(best)
		return
	}
	// All cores busy: shortest queue, lowest index on ties.
	best = 0
	for c := 1; c < len(k.runq); c++ {
		if len(k.runq[c]) < len(k.runq[best]) {
			best = c
		}
	}
	k.runq[best] = append(k.runq[best], t) //pclint:allow hotalloc first-use growth: run queues remove in place, so the array grows only past its peak length
}

// popBest removes and returns the highest-priority (FIFO among equals)
// task of a queue, or nil if empty.
func popBest(q *[]*Task) *Task {
	if len(*q) == 0 {
		return nil
	}
	best := 0
	for i, t := range (*q)[1:] {
		if t.Priority > (*q)[best].Priority {
			best = i + 1
		}
	}
	t := (*q)[best]
	n := copy((*q)[best:], (*q)[best+1:])
	*q = (*q)[:best+n]
	return t
}

// pickNext pops the next ready task for core c — highest priority first,
// FIFO among equals — stealing from the longest sibling queue when the
// local queue is empty.
func (k *Kernel) pickNext(c int) *Task {
	if t := popBest(&k.runq[c]); t != nil {
		return t
	}
	victim, max := -1, 0
	for q := range k.runq {
		if len(k.runq[q]) > max {
			victim, max = q, len(k.runq[q])
		}
	}
	if victim < 0 {
		return nil
	}
	return popBest(&k.runq[victim])
}

// enterCore installs t on an idle core.
//
//pclint:hotpath
func (k *Kernel) enterCore(c int, t *Task) {
	if k.running[c] != nil {
		panic(fmt.Sprintf("kernel: enterCore on busy core %d", c)) //pclint:allow hotalloc panic-path formatting on an invariant violation
	}
	k.running[c] = t
	k.Cores[c].Busy = true
	t.core = c
	t.state = TaskRunning
	t.sliceExpiry = k.Now() + k.Quantum
	chip := k.Spec.ChipOf(c)
	k.chipBusy[chip]++
	k.Rec.SetChipBusyCores(chip, k.chipBusy[chip], k.Now())
	k.Monitor.OnSwitch(k.Cores[c], nil, t)
}

// leaveCore removes the running task from its core; state must be set by
// the caller afterwards (blocked/zombie/ready).
//
//pclint:hotpath
func (k *Kernel) leaveCore(c int, t *Task) {
	if k.running[c] != t {
		panic(fmt.Sprintf("kernel: leaveCore mismatch on core %d", c)) //pclint:allow hotalloc panic-path formatting on an invariant violation
	}
	k.Monitor.OnSwitch(k.Cores[c], t, nil)
	k.running[c] = nil
	k.Cores[c].Busy = false
	t.core = -1
	chip := k.Spec.ChipOf(c)
	k.chipBusy[chip]--
	k.Rec.SetChipBusyCores(chip, k.chipBusy[chip], k.Now())
}

// runCore drives core c until it has either a scheduled execution segment
// or nothing to run.
//
//pclint:hotpath
func (k *Kernel) runCore(c int) {
	for {
		if k.segBusy[c] {
			// A nested call (e.g. a task exit waking its parent onto
			// this just-freed core) already scheduled the segment.
			return
		}
		t := k.running[c]
		if t == nil {
			t = k.pickNext(c)
			if t == nil {
				return // core idles; wakeups restart it
			}
			k.enterCore(c, t)
			continue
		}
		if !t.computing {
			k.advanceProgram(c, t)
			if k.running[c] != t {
				continue // t blocked or exited
			}
		}
		core := k.Cores[c]
		d := core.WallFor(t.remCycles)
		if ov := core.TimeToOverflow(); ov < d {
			d = ov
		}
		if sl := t.sliceExpiry - k.Now(); sl < d {
			d = sl
		}
		if d < 1 {
			d = 1
		}
		k.segStart[c] = k.Now()
		k.segBusy[c] = true
		k.Eng.After(d, k.segEnd[c])
		return
	}
}

// onSegmentEnd accounts for the elapsed execution segment on core c, then
// handles whichever boundaries were crossed: counter overflow, op
// completion, quantum expiry.
//
//pclint:hotpath
func (k *Kernel) onSegmentEnd(c int) {
	k.segBusy[c] = false
	t := k.running[c]
	if t == nil {
		panic(fmt.Sprintf("kernel: segment end on idle core %d", c)) //pclint:allow hotalloc panic-path formatting on an invariant violation
	}
	core := k.Cores[c]
	now := k.Now()
	start := k.segStart[c]
	if now > start {
		cycles := core.AdvanceBusy(now-start, t.effAct)
		k.Rec.AddCoreSegment(start, now, t.effAct, core.DutyFraction())
		t.remCycles -= cycles
	}
	if core.Overflowed() {
		// Overflowed() self-resets the latch; it must be consumed even
		// when the fault surface drops the interrupt delivery itself.
		if k.Faults == nil || !k.Faults.DropInterrupt(c, now) {
			k.Monitor.OnInterrupt(core, t)
		}
	}
	if t.remCycles <= 0.5 {
		t.computing = false
		t.remCycles = 0
	}
	if t.computing && now >= t.sliceExpiry {
		if len(k.runq[c]) > 0 {
			// Quantum expired with waiters: rotate.
			k.leaveCore(c, t)
			t.state = TaskReady
			k.runq[c] = append(k.runq[c], t) //pclint:allow hotalloc first-use growth: run queues remove in place, so the array grows only past its peak length
		} else {
			t.sliceExpiry = now + k.Quantum
		}
	}
	k.runCore(c)
}

// advanceProgram executes non-compute ops until the task starts computing,
// blocks, or exits. It must be called with t running on core c.
//
//pclint:hotpath
func (k *Kernel) advanceProgram(c int, t *Task) {
	const maxOpsPerVisit = 100000
	for guard := 0; ; guard++ {
		if guard > maxOpsPerVisit {
			panic(fmt.Sprintf("kernel: %v issued %d consecutive zero-work ops", t, guard)) //pclint:allow hotalloc panic-path formatting on an invariant violation
		}
		op := t.prog.Next(k, t)
		switch op.kind {
		case opCompute:
			cycles, eff := cpu.Execution(k.Spec, op.cycles, op.act)
			if cycles <= 0 {
				continue
			}
			t.computing = true
			t.remCycles = cycles
			t.effAct = eff
			return

		case opExit:
			k.exitTask(c, t)
			return

		case opSend:
			k.send(t, op.obj.(*Endpoint), int(op.n), op.arg)

		case opRecv:
			buf := op.obj.(*Endpoint).recvBuf()
			if buf.segs.len() > 0 {
				seg := buf.segs.pop()
				t.LastRecv = seg.payload
				if k.Observer != nil {
					k.Observer.Observe(k.segEvent(sim.KindSockDeliver, buf, seg))
				}
				k.applyBinding(t, k.tagOf(buf, seg))
				continue
			}
			buf.waiting.push(t)
			k.block(c, t)
			return

		case opRecvListener:
			l := op.obj.(*Listener)
			if l.segs.len() > 0 {
				seg := l.segs.pop()
				t.LastRecv = seg.payload
				if k.Observer != nil {
					k.Observer.Observe(k.segEvent(sim.KindSockDeliver, l, seg))
				}
				k.applyBinding(t, seg.ctx)
				continue
			}
			l.waiting.push(t)
			k.block(c, t)
			return

		case opFork:
			k.fork(t, op.arg.(string), op.obj.(Program)) //pclint:allow hotalloc first-use growth: a fork allocates only the child task itself and its task-table slot, once per child

		case opWaitChild:
			if len(t.zombies) > 0 {
				k.reapOne(t)
				continue
			}
			if t.liveChildren == 0 {
				continue // nothing to wait for
			}
			t.waitingChild = true
			k.block(c, t)
			return

		case opSleep:
			k.block(c, t)
			k.Eng.After(sim.Time(op.n), k.timerOf(t))
			return

		case opDisk:
			k.deviceOp(c, t, k.Disk, op.n)
			return

		case opNet:
			k.deviceOp(c, t, k.Net, op.n)
			return

		case opCall:
			op.obj.(func(*Kernel, *Task))(k, t)

		case opUserStage:
			if k.TrapUserTransfers {
				k.applyBinding(t, op.obj)
			}

		default:
			panic(fmt.Sprintf("kernel: %v issued an invalid op (kind %d)", t, op.kind)) //pclint:allow hotalloc panic-path formatting on an invariant violation
		}
	}
}

// fork creates and starts a child of t running prog.
func (k *Kernel) fork(t *Task, name string, prog Program) {
	child := k.newTask(name, prog, t.Ctx, t)
	t.liveChildren++
	k.Monitor.OnTaskStart(child)
	k.Monitor.OnFork(t, child)
	k.makeRunnable(child)
}

// tagOf returns the request-context tag a receiver should adopt for a
// segment, honouring the tagging mode.
func (k *Kernel) tagOf(buf *sockBuf, seg segment) Context {
	if k.PerSegmentTagging {
		return seg.ctx
	}
	return buf.lastCtx
}

// applyBinding switches a task's request-context binding, notifying the
// monitor first so pre-switch counters attribute to the old binding.
func (k *Kernel) applyBinding(t *Task, ctx Context) {
	if ctx == t.Ctx {
		return
	}
	k.Monitor.OnBind(t, ctx)
	t.Ctx = ctx
}

// send appends a tagged segment, waking a blocked receiver directly.
func (k *Kernel) send(t *Task, e *Endpoint, bytes int, payload any) {
	ctx := t.Ctx
	if k.Faults != nil && k.Faults.DropSendTag(k.Now()) {
		// The tag is lost before the segment enters the buffer, so the
		// observation stream sees the untagged segment consistently at both
		// enqueue and deliver.
		ctx = loseTag(ctx)
	}
	buf := e.sendBuf()
	buf.lastCtx = ctx
	if buf.waiting.len() > 0 {
		w := buf.waiting.pop()
		w.LastRecv = payload
		if k.Observer != nil {
			seg := segment{bytes: bytes, ctx: ctx, seq: k.nextSegSeq()}
			k.Observer.Observe(k.segEvent(sim.KindSockEnqueue, buf, seg))
			k.Observer.Observe(k.segEvent(sim.KindSockDeliver, buf, seg))
		}
		k.applyBinding(w, ctx)
		k.wake(w)
		return
	}
	seg := segment{bytes: bytes, ctx: ctx, payload: payload}
	if k.Observer != nil {
		seg.seq = k.nextSegSeq()
		k.Observer.Observe(k.segEvent(sim.KindSockEnqueue, buf, seg))
	}
	buf.segs.push(seg)
}

// nextSegSeq returns a fresh observation identity for a socket segment.
func (k *Kernel) nextSegSeq() uint64 {
	k.segSeq++
	return k.segSeq
}

// segEvent describes seg entering or leaving the socket buffer buf.
func (k *Kernel) segEvent(kind sim.Kind, buf any, seg segment) sim.Event {
	return sim.Event{Kind: kind, T: k.Now(), Obj: buf, Seq: seg.seq, N: int64(seg.bytes), Tag: seg.ctx}
}

// block removes a running task from its core into the blocked state.
func (k *Kernel) block(c int, t *Task) {
	k.leaveCore(c, t)
	t.state = TaskBlocked
}

// wake makes a blocked task runnable.
func (k *Kernel) wake(t *Task) {
	if t.state != TaskBlocked {
		panic(fmt.Sprintf("kernel: wake on %v", t)) //pclint:allow hotalloc panic-path formatting on an invariant violation
	}
	t.state = TaskReady
	k.makeRunnable(t)
}

// deviceOp reserves device time for a synchronous transfer, blocks the
// task, and attributes the device energy when the transfer completes.
func (k *Kernel) deviceOp(c int, t *Task, dev *Device, bytes int64) {
	start, done := dev.schedule(k.Now(), bytes)
	k.Rec.AddDeviceSegment(start, done, dev.BusyWatts)
	k.block(c, t)
	t.ioDev, t.ioBytes, t.ioBusy = dev, bytes, done-start
	k.Eng.At(done, k.timerOf(t))
}

// timerOf returns t's timer callback, building it on first use.
func (k *Kernel) timerOf(t *Task) func() {
	if t.timerFn == nil {
		t.timerFn = func() { k.onTimer(t) } //pclint:allow hotalloc first-use growth: one closure per task, reused by every later sleep and transfer
	}
	return t.timerFn
}

// onTimer ends the sleep or device transfer t is blocked on: a finished
// transfer retires from its device and reports its energy first.
func (k *Kernel) onTimer(t *Task) {
	if dev := t.ioDev; dev != nil {
		t.ioDev = nil
		dev.complete(k.Now())
		k.Monitor.OnIO(t, dev.Kind, t.ioBytes, t.ioBusy, dev.BusyWatts)
	}
	k.wake(t)
}

// reapOne reaps one zombie child of t.
func (k *Kernel) reapOne(t *Task) {
	z := t.zombies[0]
	n := copy(t.zombies, t.zombies[1:])
	t.zombies[n] = nil
	t.zombies = t.zombies[:n]
	z.state = TaskDead
}

// exitTask terminates t, notifying the monitor after final attribution and
// waking a waiting parent.
func (k *Kernel) exitTask(c int, t *Task) {
	k.leaveCore(c, t)
	t.state = TaskZombie
	k.Monitor.OnExit(t)
	p := t.parent
	if p == nil || p.state == TaskDead || p.state == TaskZombie {
		t.state = TaskDead
		return
	}
	p.liveChildren--
	p.zombies = append(p.zombies, t) //pclint:allow hotalloc first-use growth: reaping removes in place, so the array grows only past the parent's peak of unreaped children
	if p.waitingChild {
		p.waitingChild = false
		k.reapOne(p)
		k.wake(p)
	}
}

// ChargeMaintenance models the observer effect of one facility maintenance
// operation: the given events are injected into the core's counters and the
// corresponding true energy is charged to the package. The facility calls
// this for every sampling operation it performs — once per context switch
// and once per overflow interrupt — with its one fixed event vector, so the
// model evaluation is memoized per core for the vector at ev's address and
// the steady-state cost is one counter add plus one recorder charge. The
// caller must not change *ev between charges.
//
//pclint:hotpath
func (k *Kernel) ChargeMaintenance(core int, ev *cpu.Counters) {
	cc := k.Cores[core]
	cc.AddEvents(ev)
	if ev.Cycles <= 0 {
		return
	}
	if ev != k.maintEv {
		k.maintEv = ev
		clear(k.maintJoules)
	}
	joules := k.maintJoules[core]
	if joules <= 0 {
		act := cpu.Activity{
			IPC:   ev.Instructions / ev.Cycles,
			FLOPC: ev.Float / ev.Cycles,
			LLCPC: ev.Cache / ev.Cycles,
			MemPC: ev.Mem / ev.Cycles,
		}
		watts := k.Rec.Profile().CorePowerW(act, 1.0)
		seconds := ev.Cycles / cc.FreqHz
		joules = watts * seconds
		k.maintJoules[core] = joules
	}
	k.Rec.AddObserverEnergy(k.Now(), joules)
}
