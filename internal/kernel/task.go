// Package kernel is the operating-system simulator that power containers
// run inside: tasks executing op-based programs, per-core run queues with a
// socket-spreading wakeup policy, sockets whose buffered segments carry
// request-context tags, fork/wait/exit, counter-overflow interrupts, and
// synchronous disk/network devices.
//
// The kernel reports every sampling-relevant event to a Monitor (the power
// container facility implements it) and every execution segment to the
// ground-truth power recorder. Facility maintenance operations perturb the
// hardware counters and true energy (the observer effect) but are modeled
// as instantaneous: at the paper's measured 0.95 µs per operation and
// ~1 kHz sampling they would distort wall-clock time by only ~0.1%.
package kernel

import (
	"fmt"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// Context is an opaque request-context binding. The kernel propagates it
// through socket segments, fork and task bindings without interpreting it;
// the power-container facility stores its container pointers here.
type Context any

// TaskState enumerates the lifecycle of a task.
type TaskState int

const (
	// TaskReady means runnable, waiting in a run queue.
	TaskReady TaskState = iota
	// TaskRunning means currently executing on a core.
	TaskRunning
	// TaskBlocked means waiting for a message, child, timer or device.
	TaskBlocked
	// TaskZombie means exited but not yet reaped by its parent.
	TaskZombie
	// TaskDead means fully reaped.
	TaskDead
)

func (s TaskState) String() string {
	switch s {
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskBlocked:
		return "blocked"
	case TaskZombie:
		return "zombie"
	case TaskDead:
		return "dead"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// Program supplies a task's next operation. Next is called whenever the
// previous op completes; returning Exit() ends the task. Programs may be
// stateful (server workers loop forever serving messages).
type Program interface {
	Next(k *Kernel, t *Task) Op
}

// scriptProgram runs a fixed op list once.
type scriptProgram struct {
	ops []Op
	i   int
}

func (p *scriptProgram) Next(k *Kernel, t *Task) Op {
	if p.i >= len(p.ops) {
		return Exit()
	}
	op := p.ops[p.i]
	p.i++
	return op
}

// Script returns a Program that executes the given ops in order, then
// exits. Each Script value is single-use.
func Script(ops ...Op) Program { return &scriptProgram{ops: ops} }

// FuncProgram adapts a function to the Program interface.
type FuncProgram func(k *Kernel, t *Task) Op

// Next implements Program.
func (f FuncProgram) Next(k *Kernel, t *Task) Op { return f(k, t) }

// Task is a simulated process or thread.
type Task struct {
	PID  int
	Name string
	// Ctx is the task's current request-context binding (nil means
	// unbound; the facility attributes unbound activity to a special
	// background container, as the paper does for GAE system activity).
	Ctx Context

	state TaskState
	core  int // core currently running on, -1 otherwise
	prog  Program

	// Current compute op progress.
	computing    bool
	remCycles    float64
	effAct       cpu.Activity
	sliceExpiry  sim.Time
	parent       *Task
	liveChildren int
	zombies      []*Task
	waitingChild bool

	// timerFn is the task's timer callback, built on first use: it ends
	// the sleep or device transfer the task is blocked on. A blocked task
	// waits on at most one timer, so one closure serves every later sleep
	// and transfer. ioDev is the device of the transfer in flight (nil
	// while sleeping), and ioBytes and ioBusy its size and busy time.
	timerFn func()
	ioDev   *Device
	ioBytes int64
	ioBusy  sim.Time

	// LastRecv is the payload of the most recently received message
	// (socket or listener); handlers read it after a Recv completes.
	LastRecv any

	// Priority orders run-queue selection: higher runs first (0 is the
	// default). System daemons (e.g. the GAE background processing) run
	// at elevated priority, as real platform services do.
	Priority int
}

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// Core returns the core the task currently runs on, or -1.
func (t *Task) Core() int { return t.core }

func (t *Task) String() string {
	return fmt.Sprintf("task %d (%s, %s)", t.PID, t.Name, t.state)
}

// Op is one operation of a task program: a kind tag plus the few operands
// that kind reads. It is a value, so a program hands back its next op
// without a heap allocation. Build ops with the constructors below; the
// zero Op is invalid and the kernel panics on it.
type Op struct {
	kind   opKind
	cycles float64      // compute: machine-independent base cycles
	act    cpu.Activity // compute: activity signature
	n      int64        // send, disk, net: bytes; sleep: duration
	// obj is the object the op acts on: the *Endpoint of a send or
	// receive, the *Listener of a listener receive, the Program of a
	// fork, the callback of a call, or the Context of a user stage.
	obj any
	// arg is a send's payload or a fork's task name.
	arg any
}

// opKind tags an Op.
type opKind uint8

const (
	opInvalid opKind = iota
	opExit
	opCompute
	opSend
	opRecv
	opRecvListener
	opFork
	opWaitChild
	opSleep
	opDisk
	opNet
	opCall
	opUserStage
)

// Exit ends the task. A program returns it once it has no more work.
func Exit() Op { return Op{kind: opExit} }

// Compute executes baseCycles of machine-independent work with the given
// activity signature. The kernel translates base cycles into this machine's
// effective cycles (memory stalls inflate them) via cpu.Execution.
func Compute(baseCycles float64, act cpu.Activity) Op {
	return Op{kind: opCompute, cycles: baseCycles, act: act}
}

// Send sends a message of the given size through the endpoint. The segment
// is tagged with the sender's current context (the paper's TCP-option tag)
// and may carry an opaque payload (the application-level message body,
// e.g. a query's parameters). Send never blocks (buffers are unbounded).
func Send(end *Endpoint, bytes int, payload any) Op {
	return Op{kind: opSend, n: int64(bytes), obj: end, arg: payload}
}

// Recv receives one message from the endpoint, blocking until one is
// buffered. The receiving task adopts the segment's context tag — a request
// context switch if it differs from the current binding.
func Recv(end *Endpoint) Op { return Op{kind: opRecv, obj: end} }

// RecvListener receives one externally injected message (a new request)
// from a listener.
func RecvListener(l *Listener) Op { return Op{kind: opRecvListener, obj: l} }

// Fork creates a child task running prog. The child inherits the parent's
// context binding.
func Fork(name string, prog Program) Op { return Op{kind: opFork, obj: prog, arg: name} }

// WaitChild blocks until one child has exited, then reaps it.
func WaitChild() Op { return Op{kind: opWaitChild} }

// Sleep blocks for a fixed duration.
func Sleep(d sim.Time) Op { return Op{kind: opSleep, n: int64(d)} }

// Disk performs synchronous disk I/O of the given size through the shared
// disk device; the task blocks until the transfer completes.
func Disk(bytes int64) Op { return Op{kind: opDisk, n: bytes} }

// Net performs synchronous network I/O of the given size through the
// shared NIC.
func Net(bytes int64) Op { return Op{kind: opNet, n: bytes} }

// Call invokes a harness callback synchronously. Experiment harnesses use
// it to record request completions and to chain cross-machine hops.
func Call(fn func(k *Kernel, t *Task)) Op { return Op{kind: opCall, obj: fn} }

// UserStage models a user-level request stage transfer: an event-driven
// server (or user-level thread runtime) switching which request it serves
// purely in user space, with no kernel-visible system call. By default the
// kernel cannot observe it — the paper's stated limitation (§3.3) — so the
// task's binding is left unchanged and power keeps charging the old
// request. With Kernel.TrapUserTransfers enabled (the paper's future-work
// idea of trapping accesses to critical synchronization data structures),
// the kernel observes the transfer and rebinds exactly like a socket read.
func UserStage(ctx Context) Op { return Op{kind: opUserStage, obj: ctx} }
