package kernel

import (
	"math"
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/faults"
	"powercontainers/internal/sim"
)

// surface builds a kernel fault surface from counter/socket configs.
func surface(seed uint64, c *faults.CounterFaults, s *faults.SocketFaults) *faults.KernelSurface {
	return (&faults.Plan{Seed: seed, Counter: c, Socket: s}).KernelSurface()
}

// TestReadCountersAppliesWrapModulus: with a counter-fault surface
// installed, ReadCounters sees register values wrapped at the modulus while
// the underlying core counters stay exact.
func TestReadCountersAppliesWrapModulus(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	k.Faults = surface(1, &faults.CounterFaults{WrapEvery: 1e6}, nil)
	k.Spawn("w", Script(Compute(5e6, cpu.Activity{IPC: 1})), nil)
	k.Eng.Run()

	raw := k.Cores[0].Counters()
	if raw.Cycles < 4e6 {
		t.Fatalf("raw cycles = %g, task did not run", raw.Cycles)
	}
	var got cpu.Counters
	k.ReadCounters(0, &got)
	if got.Cycles >= 1e6 || got.Cycles != math.Mod(raw.Cycles, 1e6) {
		t.Fatalf("wrapped cycles = %g, want %g", got.Cycles, math.Mod(raw.Cycles, 1e6))
	}
	if w := k.CounterWrapModulus(); w != 1e6 {
		t.Fatalf("modulus = %g, want 1e6", w)
	}

	// Without a surface, ReadCounters is the identity read.
	k2 := newTestKernel(t, uniSpec, nil)
	k2.Spawn("w", Script(Compute(5e6, cpu.Activity{IPC: 1})), nil)
	k2.Eng.Run()
	if k2.ReadCounters(0, &got); got != k2.Cores[0].Counters() {
		t.Fatal("identity read changed counters without faults")
	}
	if k2.CounterWrapModulus() != 0 {
		t.Fatal("modulus non-zero without faults")
	}
}

// TestLostInterruptsSuppressMonitorDelivery: a certain-loss fault plan must
// suppress every overflow interrupt delivery without wedging the core — the
// overflow latch is still consumed so execution completes normally.
func TestLostInterruptsSuppressMonitorDelivery(t *testing.T) {
	run := func(lossP float64) (int, sim.Time) {
		mon := &recordingMonitor{}
		k := newTestKernel(t, uniSpec, mon)
		k.Cores[0].SetOverflowThreshold(1e6)
		if lossP > 0 {
			k.Faults = surface(2, &faults.CounterFaults{LostInterruptP: lossP}, nil)
		}
		k.Spawn("w", Script(Compute(10e6, cpu.Activity{IPC: 1})), nil)
		k.Eng.Run()
		return mon.interrupts, k.Eng.Now()
	}
	cleanIRQs, cleanEnd := run(0)
	if cleanIRQs == 0 {
		t.Fatal("baseline run delivered no overflow interrupts")
	}
	lostIRQs, lostEnd := run(1)
	if lostIRQs != 0 {
		t.Fatalf("certain interrupt loss still delivered %d interrupts", lostIRQs)
	}
	if lostEnd != cleanEnd {
		t.Fatalf("suppressed interrupts changed execution: end %s vs %s",
			sim.FormatTime(lostEnd), sim.FormatTime(cleanEnd))
	}
}

// TestInjectTagLossUnbindsRequest: certain tag loss at the listener boundary
// delivers the message with no context, so the serving task binds to nil
// (background accounting) instead of the request.
func TestInjectTagLossUnbindsRequest(t *testing.T) {
	run := func(lossP float64) Context {
		k := newTestKernel(t, uniSpec, nil)
		if lossP > 0 {
			k.Faults = surface(3, nil, &faults.SocketFaults{InjectTagLossP: lossP})
		}
		l := NewListener("in")
		var got Context
		var step int
		k.Spawn("server", FuncProgram(func(k *Kernel, t *Task) Op {
			step++
			switch step {
			case 1:
				return RecvListener(l)
			case 2:
				got = t.Ctx
				return Compute(1000, cpu.Activity{})
			}
			return Exit()
		}), nil)
		k.Inject(l, 100, "req", nil)
		k.Eng.Run()
		return got
	}
	if got := run(0); got != "req" {
		t.Fatalf("baseline binding = %v, want req", got)
	}
	if got := run(1); got != nil {
		t.Fatalf("lost tag still bound %v, want nil (background)", got)
	}
}

// TestSendTagLossIsDeterministic: partial send-tag loss on a connection
// produces the same loss pattern on every same-seed run, and the lossy
// segments arrive untagged. (No auditor is attached here: mid-connection
// tag loss deliberately breaks tag conservation — that is the fault being
// injected.)
func TestSendTagLossIsDeterministic(t *testing.T) {
	const sends = 20
	run := func() []bool {
		k := newTestKernel(t, uniSpec, nil)
		k.PerSegmentTagging = true
		k.Faults = surface(7, nil, &faults.SocketFaults{SendTagLossP: 0.5})
		a, b := NewConn()
		// Script the sends explicitly so each carries the request context.
		var ops []Op
		ops = append(ops, Call(func(k *Kernel, t *Task) { t.Ctx = "req" }))
		for i := 0; i < sends; i++ {
			ops = append(ops, Send(a, 10, nil))
		}
		k.Spawn("sender", Script(ops...), nil)
		var pattern []bool
		var step int
		k.Spawn("receiver", FuncProgram(func(k *Kernel, t *Task) Op {
			step++
			if step == 1 {
				return Sleep(sim.Millisecond)
			}
			if step%2 == 0 {
				if len(pattern) >= sends {
					return Exit()
				}
				return Recv(b)
			}
			pattern = append(pattern, t.Ctx == nil)
			return Compute(100, cpu.Activity{})
		}), nil)
		k.Eng.Run()
		return pattern
	}
	first := run()
	if len(first) != sends {
		t.Fatalf("received %d segments, want %d", len(first), sends)
	}
	lost := 0
	for _, l := range first {
		if l {
			lost++
		}
	}
	if lost == 0 || lost == sends {
		t.Fatalf("50%% send-tag loss lost %d of %d — injection inert or total", lost, sends)
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same-seed loss patterns diverge at segment %d", i)
		}
	}
}
