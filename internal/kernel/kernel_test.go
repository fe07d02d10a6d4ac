package kernel

import (
	"fmt"
	"math"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// uniSpec is a single-core machine for deterministic scheduling tests.
var uniSpec = cpu.MachineSpec{
	Name:         "Uni",
	Chips:        1,
	CoresPerChip: 1,
	FreqHz:       1e9,
	DutyLevels:   8,
}

var testProfile = power.TrueProfile{
	MachineIdleW: 50,
	PkgIdleW:     2,
	ChipMaintW:   5,
	CoreW:        10,
	InsW:         2,
	FloatW:       1,
	CacheW:       100,
	MemW:         200,
	SynW:         0,
	DiskW:        1.7,
	NetW:         5.8,
}

func newTestKernel(t *testing.T, spec cpu.MachineSpec, mon Monitor) *Kernel {
	t.Helper()
	eng := sim.NewEngine()
	k, err := New("test", spec, testProfile, eng, mon)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// recordingMonitor captures the callback stream.
type recordingMonitor struct {
	NopMonitor
	interrupts int
	switches   []string
	binds      []string
	forks      int
	exits      int
	ios        []string
	starts     int
}

func (m *recordingMonitor) OnInterrupt(c *cpu.Core, t *Task) { m.interrupts++ }
func (m *recordingMonitor) OnSwitch(c *cpu.Core, prev, next *Task) {
	name := func(t *Task) string {
		if t == nil {
			return "-"
		}
		return t.Name
	}
	m.switches = append(m.switches, fmt.Sprintf("%d:%s->%s", c.ID, name(prev), name(next)))
}
func (m *recordingMonitor) OnBind(t *Task, ctx Context) {
	m.binds = append(m.binds, fmt.Sprintf("%s=%v", t.Name, ctx))
}
func (m *recordingMonitor) OnFork(p, c *Task) { m.forks++ }
func (m *recordingMonitor) OnExit(t *Task)    { m.exits++ }
func (m *recordingMonitor) OnIO(t *Task, d DeviceKind, bytes int64, busy sim.Time, w float64) {
	m.ios = append(m.ios, fmt.Sprintf("%s:%s:%d", t.Name, d, bytes))
}
func (m *recordingMonitor) OnTaskStart(t *Task) { m.starts++ }

func TestSingleComputeTask(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	act := cpu.Activity{IPC: 2}
	tk := k.Spawn("worker", Script(Compute(5e6, act)), nil)
	k.Eng.Run()

	if tk.State() != TaskDead {
		t.Fatalf("task state = %v, want dead", tk.State())
	}
	// 5e6 cycles at 1 GHz = 5 ms.
	if got := k.Eng.Now(); got < 5*sim.Millisecond || got > 5*sim.Millisecond+sim.Microsecond {
		t.Fatalf("finished at %s, want ≈5ms", sim.FormatTime(got))
	}
	cnt := k.Cores[0].Counters()
	if math.Abs(cnt.Cycles-5e6) > 10 {
		t.Fatalf("cycles = %g, want 5e6", cnt.Cycles)
	}
	if math.Abs(cnt.Instructions-1e7) > 20 {
		t.Fatalf("instructions = %g, want 1e7", cnt.Instructions)
	}
	// Ground truth: (CoreW + InsW·2) for 5 ms, plus maintenance 5 W.
	wantW := testProfile.CoreW + 2*testProfile.InsW + testProfile.ChipMaintW
	gotW := k.Rec.PkgActivePowerW(0, 5*sim.Millisecond)
	if math.Abs(gotW-wantW) > 0.05 {
		t.Fatalf("recorded power = %g, want %g", gotW, wantW)
	}
}

func TestWakeupSpreadsAcrossChips(t *testing.T) {
	// Two tasks on a 2-chip machine must land on different chips
	// (Figure 1's Woodcrest behaviour).
	k := newTestKernel(t, cpu.Woodcrest, nil)
	a := k.Spawn("a", Script(Compute(1e9, cpu.Activity{})), nil)
	b := k.Spawn("b", Script(Compute(1e9, cpu.Activity{})), nil)
	k.Eng.RunUntil(sim.Millisecond)
	ca, cb := a.Core(), b.Core()
	if ca < 0 || cb < 0 {
		t.Fatalf("tasks not running: cores %d %d", ca, cb)
	}
	if cpu.Woodcrest.ChipOf(ca) == cpu.Woodcrest.ChipOf(cb) {
		t.Fatalf("both tasks on chip %d; scheduler should spread sockets", cpu.Woodcrest.ChipOf(ca))
	}
}

func TestQuantumRotationSharesCore(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	var doneA, doneB sim.Time
	a := Script(
		Compute(10e6, cpu.Activity{}),
		Call(func(k *Kernel, _ *Task) { doneA = k.Now() }),
	)
	b := Script(
		Compute(10e6, cpu.Activity{}),
		Call(func(k *Kernel, _ *Task) { doneB = k.Now() }),
	)
	k.Spawn("a", a, nil)
	k.Spawn("b", b, nil)
	k.Eng.Run()
	// Each needs 10 ms of CPU; with rotation both finish near 20 ms
	// rather than one at 10 ms and the other at 20 ms.
	if doneA < 18*sim.Millisecond || doneB < 18*sim.Millisecond {
		t.Fatalf("rotation unfair: a=%s b=%s", sim.FormatTime(doneA), sim.FormatTime(doneB))
	}
	if k.Eng.Now() > 21*sim.Millisecond {
		t.Fatalf("total runtime %s, want ≈20ms", sim.FormatTime(k.Eng.Now()))
	}
}

func TestSocketContextPropagation(t *testing.T) {
	mon := &recordingMonitor{}
	k := newTestKernel(t, uniSpec, mon)
	a, b := NewConn()
	var served []Context
	server := FuncProgram(func(k *Kernel, t *Task) Op {
		if len(served) >= 2 {
			return Exit()
		}
		return Recv(b)
	})
	// Wrap to record binding after each recv: use OpCall interleave.
	_ = server
	var step int
	serverProg := FuncProgram(func(k *Kernel, t *Task) Op {
		step++
		switch step {
		case 1, 3:
			return Recv(b)
		case 2, 4:
			served = append(served, t.Ctx)
			return Compute(1000, cpu.Activity{})
		}
		return Exit()
	})
	k.Spawn("server", serverProg, nil)
	client := Script(
		Call(func(k *Kernel, t *Task) { t.Ctx = "req1" }),
		Send(a, 100, nil),
		Call(func(k *Kernel, t *Task) { t.Ctx = "req2" }),
		Send(a, 100, nil),
	)
	k.Spawn("client", client, nil)
	k.Eng.Run()

	if len(served) != 2 || served[0] != "req1" || served[1] != "req2" {
		t.Fatalf("server bindings = %v, want [req1 req2]", served)
	}
	if len(mon.binds) == 0 {
		t.Fatal("no OnBind events recorded")
	}
}

func TestPerSegmentTaggingOnPersistentConnection(t *testing.T) {
	// The paper's unsafe scenario: two messages with different contexts
	// buffered before the receiver reads. Per-segment tagging must give
	// the receiver req1 then req2; the naive scheme gives req2 twice.
	run := func(perSegment bool) []Context {
		k := newTestKernel(t, uniSpec, nil)
		k.PerSegmentTagging = perSegment
		a, b := NewConn()
		// Sender enqueues both messages before the receiver starts.
		k.Spawn("sender", Script(
			Call(func(k *Kernel, t *Task) { t.Ctx = "req1" }),
			Send(a, 10, nil),
			Call(func(k *Kernel, t *Task) { t.Ctx = "req2" }),
			Send(a, 10, nil),
		), nil)
		var got []Context
		var step int
		k.Spawn("receiver", FuncProgram(func(k *Kernel, t *Task) Op {
			step++
			switch step {
			case 1:
				// Let the sender run first.
				return Sleep(sim.Millisecond)
			case 2, 4:
				return Recv(b)
			case 3, 5:
				got = append(got, t.Ctx)
				return Compute(100, cpu.Activity{})
			}
			return Exit()
		}), nil)
		k.Eng.Run()
		return got
	}

	safe := run(true)
	if len(safe) != 2 || safe[0] != "req1" || safe[1] != "req2" {
		t.Fatalf("per-segment tagging gave %v, want [req1 req2]", safe)
	}
	naive := run(false)
	if len(naive) != 2 || naive[0] != "req2" {
		t.Fatalf("naive tagging gave %v, expected misattribution [req2 req2]", naive)
	}
}

func TestForkInheritsContextAndWait(t *testing.T) {
	mon := &recordingMonitor{}
	k := newTestKernel(t, uniSpec, mon)
	var childCtx Context
	var waitDone sim.Time
	parent := Script(
		Call(func(k *Kernel, t *Task) { t.Ctx = "reqX" }),
		Fork("latex", Script(
			Call(func(k *Kernel, t *Task) { childCtx = t.Ctx }),
			Compute(2e6, cpu.Activity{}),
		)),
		WaitChild(),
		Call(func(k *Kernel, t *Task) { waitDone = k.Now() }),
	)
	k.Spawn("shell", parent, nil)
	k.Eng.Run()

	if childCtx != "reqX" {
		t.Fatalf("child ctx = %v, want reqX", childCtx)
	}
	if waitDone < 2*sim.Millisecond {
		t.Fatalf("wait returned at %s, before child finished", sim.FormatTime(waitDone))
	}
	if mon.forks != 1 || mon.exits != 2 || mon.starts != 2 {
		t.Fatalf("forks=%d exits=%d starts=%d", mon.forks, mon.exits, mon.starts)
	}
}

func TestWaitChildWithNoChildrenDoesNotBlock(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	done := false
	k.Spawn("p", Script(WaitChild(), Call(func(*Kernel, *Task) { done = true })), nil)
	k.Eng.Run()
	if !done {
		t.Fatal("WaitChild with no children blocked forever")
	}
}

func TestWaitChildReapsAlreadyExited(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	order := []string{}
	parent := Script(
		Fork("c", Script(Call(func(*Kernel, *Task) { order = append(order, "child") }))),
		Compute(5e6, cpu.Activity{}), // child exits while parent computes
		WaitChild(),
		Call(func(*Kernel, *Task) { order = append(order, "reaped") }),
	)
	k.Spawn("p", parent, nil)
	k.Eng.Run()
	if len(order) != 2 || order[0] != "child" || order[1] != "reaped" {
		t.Fatalf("order = %v", order)
	}
}

func TestListenerInjectAndRecv(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	l := NewListener("http")
	var got []Context
	var step int
	k.Spawn("worker", FuncProgram(func(k *Kernel, t *Task) Op {
		step++
		switch {
		case step%2 == 1 && step < 6:
			return RecvListener(l)
		case step%2 == 0:
			got = append(got, t.Ctx)
			return Compute(1000, cpu.Activity{})
		}
		return Exit()
	}), nil)
	// One message before the worker blocks, two after.
	k.Inject(l, 10, "r0", nil)
	k.Eng.After(sim.Millisecond, func() { k.Inject(l, 10, "r1", nil) })
	k.Eng.After(2*sim.Millisecond, func() { k.Inject(l, 10, "r2", nil) })
	k.Eng.Run()
	if len(got) != 3 || got[0] != "r0" || got[1] != "r1" || got[2] != "r2" {
		t.Fatalf("got %v", got)
	}
}

func TestSleepDuration(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	var woke sim.Time
	k.Spawn("s", Script(
		Sleep(7*sim.Millisecond),
		Call(func(k *Kernel, _ *Task) { woke = k.Now() }),
	), nil)
	k.Eng.Run()
	if woke != 7*sim.Millisecond {
		t.Fatalf("woke at %s, want 7ms", sim.FormatTime(woke))
	}
}

func TestDeviceOpsSerializeAndAttribute(t *testing.T) {
	mon := &recordingMonitor{}
	k := newTestKernel(t, cpu.SandyBridge, mon)
	// Two tasks each read 12 MB from disk concurrently; the device FIFO
	// serializes so total time ≈ 2 × (4ms + 0.1s).
	mb12 := int64(12e6)
	k.Spawn("d1", Script(Disk(mb12)), nil)
	k.Spawn("d2", Script(Disk(mb12)), nil)
	k.Eng.Run()
	perOp := 4*sim.Millisecond + sim.Time(12e6/120e6*1e9)
	want := 2 * perOp
	if got := k.Eng.Now(); got < want-sim.Millisecond || got > want+sim.Millisecond {
		t.Fatalf("disk ops finished at %s, want ≈%s", sim.FormatTime(got), sim.FormatTime(want))
	}
	if len(mon.ios) != 2 {
		t.Fatalf("OnIO events = %v", mon.ios)
	}
	// Device energy recorded at DiskW for the busy span.
	gotW := k.Rec.MachineActivePowerW(0, want)
	if math.Abs(gotW-testProfile.DiskW) > 0.2 {
		t.Fatalf("disk power = %g, want ≈%g", gotW, testProfile.DiskW)
	}
}

func TestOverflowInterruptsFire(t *testing.T) {
	mon := &recordingMonitor{}
	k := newTestKernel(t, uniSpec, mon)
	// 1 ms worth of cycles at 1 GHz.
	k.Cores[0].SetOverflowThreshold(1e6)
	k.Spawn("w", Script(Compute(10.5e6, cpu.Activity{})), nil)
	k.Eng.Run()
	if mon.interrupts != 10 {
		t.Fatalf("interrupts = %d, want 10", mon.interrupts)
	}
}

func TestMonitorSwitchSequence(t *testing.T) {
	mon := &recordingMonitor{}
	k := newTestKernel(t, uniSpec, mon)
	k.Spawn("w", Script(Compute(1e6, cpu.Activity{})), nil)
	k.Eng.Run()
	if len(mon.switches) != 2 || mon.switches[0] != "0:-->w" || mon.switches[1] != "0:w->-" {
		t.Fatalf("switches = %v", mon.switches)
	}
}

func TestChargeMaintenance(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	ev := cpu.Counters{Cycles: 2948, Instructions: 1656, Float: 16, Cache: 3}
	before := k.Cores[0].Counters()
	k.ChargeMaintenance(0, &ev)
	delta := k.Cores[0].Counters()
	delta.Sub(&before)
	if delta.Cycles != 2948 || delta.Instructions != 1656 {
		t.Fatalf("maintenance events not injected: %+v", delta)
	}
	// Energy landed in bucket 0.
	k.Rec.FlushUntil(sim.Millisecond)
	if k.Rec.PkgActiveSeries().Bucket(0) <= 0 {
		t.Fatal("maintenance energy not charged")
	}
}

func TestBusyCoresAndIdleCheck(t *testing.T) {
	k := newTestKernel(t, cpu.SandyBridge, nil)
	if !k.CoreIdle(0) || k.BusyCores() != 0 {
		t.Fatal("fresh kernel should be idle")
	}
	tk := k.Spawn("w", Script(Compute(5e6, cpu.Activity{})), nil)
	k.Eng.RunUntil(100 * sim.Microsecond)
	if k.BusyCores() != 1 || k.CoreIdle(tk.Core()) {
		t.Fatal("running task not visible")
	}
	k.Eng.Run()
	if k.BusyCores() != 0 {
		t.Fatal("kernel should return to idle")
	}
}

func TestStealBalancesLoad(t *testing.T) {
	// 8 compute tasks on 4 cores: total time should be ≈ 2 rounds, not 8.
	k := newTestKernel(t, cpu.SandyBridge, nil)
	cycles := 3.1e6 * 5 // 5 ms each
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("w%d", i), Script(Compute(cycles, cpu.Activity{})), nil)
	}
	k.Eng.Run()
	if got := k.Eng.Now(); got > 11*sim.Millisecond {
		t.Fatalf("8 tasks on 4 cores took %s, want ≈10ms", sim.FormatTime(got))
	}
}

func TestTaskAccounting(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	k.Spawn("a", Script(), nil)
	k.Spawn("b", Script(), nil)
	k.Eng.Run()
	if len(k.Tasks()) != 2 {
		t.Fatalf("tasks = %d", len(k.Tasks()))
	}
	if k.Tasks()[0].PID >= k.Tasks()[1].PID {
		t.Fatal("PIDs not ordered")
	}
}

func TestKernelNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New("x", cpu.MachineSpec{}, testProfile, eng, nil); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := New("x", cpu.SandyBridge, testProfile, nil, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestPrioritySchedulingJumpsQueue(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	var order []string
	mk := func(name string, prio int) {
		tk := k.Spawn(name, Script(
			Compute(3e6, cpu.Activity{}),
			Call(func(*Kernel, *Task) { order = append(order, name) }),
		), nil)
		tk.Priority = prio
	}
	// Fill the single core, then queue one normal and one high-priority
	// task: the high-priority task must finish first despite arriving
	// later in the queue.
	mk("running", 0)
	mk("normal", 0)
	mk("urgent", 1)
	k.Eng.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	// With quantum rotation the high-priority task overtakes both others.
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["urgent"] > pos["normal"] {
		t.Fatalf("high-priority task did not jump the queue: %v", order)
	}
}

func TestPipeContextPropagation(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	r, w := NewPipe()
	var got []Context
	step := 0
	k.Spawn("reader", FuncProgram(func(k *Kernel, t *Task) Op {
		step++
		switch step {
		case 1, 3:
			return Recv(r)
		case 2, 4:
			got = append(got, t.Ctx)
			return Compute(100, cpu.Activity{})
		}
		return Exit()
	}), nil)
	k.Spawn("writer", Script(
		Call(func(k *Kernel, t *Task) { t.Ctx = "p1" }),
		Send(w, 32, nil),
		Call(func(k *Kernel, t *Task) { t.Ctx = "p2" }),
		Send(w, 32, nil),
	), nil)
	k.Eng.Run()
	if len(got) != 2 || got[0] != "p1" || got[1] != "p2" {
		t.Fatalf("pipe contexts = %v", got)
	}
}

func TestEndpointPeerAndBuffered(t *testing.T) {
	a, b := NewConn()
	if a.Peer().side != b.side || b.Peer().side != a.side {
		t.Fatal("Peer sides wrong")
	}
	k := newTestKernel(t, uniSpec, nil)
	k.Spawn("s", Script(Send(a, 8, nil), Send(a, 8, nil)), nil)
	k.Eng.Run()
	if b.Buffered() != 2 {
		t.Fatalf("buffered = %d, want 2", b.Buffered())
	}
	if a.Buffered() != 0 {
		t.Fatalf("reverse direction buffered = %d", a.Buffered())
	}
}

func TestListenerIntrospection(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	l := NewListener("x")
	k.Inject(l, 1, nil, nil)
	if l.Pending() != 1 || l.QueuedWaiters() != 0 {
		t.Fatalf("pending=%d waiters=%d", l.Pending(), l.QueuedWaiters())
	}
}

func TestUserStageTransferTrap(t *testing.T) {
	for _, trap := range []bool{false, true} {
		k := newTestKernel(t, uniSpec, nil)
		k.TrapUserTransfers = trap
		var boundCtx Context
		k.Spawn("loop", Script(
			UserStage("reqZ"),
			Compute(1e6, cpu.Activity{}),
			Call(func(k *Kernel, t *Task) { boundCtx = t.Ctx }),
		), nil)
		k.Eng.Run()
		if trap && boundCtx != "reqZ" {
			t.Fatalf("trap on: binding %v, want reqZ", boundCtx)
		}
		if !trap && boundCtx != nil {
			t.Fatalf("trap off: kernel observed user transfer: %v", boundCtx)
		}
	}
}

func TestDeviceKindStrings(t *testing.T) {
	if DeviceDisk.String() != "disk" || DeviceNet.String() != "net" {
		t.Fatal("device kind names wrong")
	}
}

func TestTaskStateStrings(t *testing.T) {
	for st, want := range map[TaskState]string{
		TaskReady: "ready", TaskRunning: "running", TaskBlocked: "blocked",
		TaskZombie: "zombie", TaskDead: "dead",
	} {
		if st.String() != want {
			t.Fatalf("%d = %q", st, st.String())
		}
	}
}
