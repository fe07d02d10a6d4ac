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
// previous op completes; returning nil exits the task. Programs may be
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
		return nil
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
	wakeFn       func() // cached "wake this task" timer callback (OpSleep)
	parent       *Task
	liveChildren int
	zombies      []*Task
	waitingChild bool

	// LastRecv is the payload of the most recently received message
	// (socket or listener); handlers read it after an OpRecv completes.
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

// Op is one operation of a task program.
type Op interface{ isOp() }

// OpCompute executes BaseCycles of machine-independent work with the given
// activity signature. The kernel translates base cycles into this machine's
// effective cycles (memory stalls inflate them) via cpu.Execution.
type OpCompute struct {
	BaseCycles float64
	Act        cpu.Activity
}

// OpSend sends a message of Bytes through the endpoint. The segment is
// tagged with the sender's current context (the paper's TCP-option tag) and
// may carry an opaque payload (the application-level message body, e.g. a
// query's parameters). Send never blocks (buffers are unbounded).
type OpSend struct {
	End     *Endpoint
	Bytes   int
	Payload any
}

// OpRecv receives one message from the endpoint, blocking until one is
// buffered. The receiving task adopts the segment's context tag — a request
// context switch if it differs from the current binding.
type OpRecv struct {
	End *Endpoint
}

// OpRecvListener receives one externally injected message (a new request)
// from a listener.
type OpRecvListener struct {
	L *Listener
}

// OpFork creates a child task running Prog. The child inherits the parent's
// context binding.
type OpFork struct {
	Name string
	Prog Program
}

// OpWaitChild blocks until one child has exited, then reaps it.
type OpWaitChild struct{}

// OpSleep blocks for a fixed duration.
type OpSleep struct {
	D sim.Time
}

// OpDisk performs synchronous disk I/O of Bytes through the shared disk
// device; the task blocks until the transfer completes.
type OpDisk struct {
	Bytes int64
}

// OpNet performs synchronous network I/O of Bytes through the shared NIC.
type OpNet struct {
	Bytes int64
}

// OpCall invokes a harness callback synchronously. Experiment harnesses use
// it to record request completions and to chain cross-machine hops.
type OpCall struct {
	Fn func(k *Kernel, t *Task)
}

// OpUserStage models a user-level request stage transfer: an event-driven
// server (or user-level thread runtime) switching which request it serves
// purely in user space, with no kernel-visible system call. By default the
// kernel cannot observe it — the paper's stated limitation (§3.3) — so the
// task's binding is left unchanged and power keeps charging the old
// request. With Kernel.TrapUserTransfers enabled (the paper's future-work
// idea of trapping accesses to critical synchronization data structures),
// the kernel observes the transfer and rebinds exactly like a socket read.
type OpUserStage struct {
	Ctx Context
}

func (OpCompute) isOp()      {}
func (OpSend) isOp()         {}
func (OpRecv) isOp()         {}
func (OpRecvListener) isOp() {}
func (OpFork) isOp()         {}
func (OpWaitChild) isOp()    {}
func (OpSleep) isOp()        {}
func (OpDisk) isOp()         {}
func (OpNet) isOp()          {}
func (OpCall) isOp()         {}
func (OpUserStage) isOp()    {}
