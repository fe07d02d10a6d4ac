package kernel

import (
	"testing"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

// sockEvent is one socket observation captured by recordingSink.
type sockEvent struct {
	kind  string // "enq" or "del"
	buf   any
	seq   uint64
	bytes int
	ctx   Context
}

// recordingSink captures the kernel's socket observation stream so tests
// can assert the enqueue/deliver pairing discipline the real auditor
// relies on.
type recordingSink struct {
	events []sockEvent
}

func (s *recordingSink) Observe(e sim.Event) {
	kind := map[sim.Kind]string{sim.KindSockEnqueue: "enq", sim.KindSockDeliver: "del"}[e.Kind]
	s.events = append(s.events, sockEvent{kind, e.Obj, e.Seq, int(e.N), e.Tag})
}

// checkPairing verifies that every delivery matches a prior enqueue on the
// same buffer with identical seq/bytes/ctx, and that per-buffer delivery
// order follows enqueue order.
func checkPairing(t *testing.T, events []sockEvent) (enqs, dels int) {
	t.Helper()
	type key struct {
		buf any
		seq uint64
	}
	inflight := map[key]sockEvent{}
	lastDelivered := map[any]uint64{}
	for _, ev := range events {
		switch ev.kind {
		case "enq":
			if _, dup := inflight[key{ev.buf, ev.seq}]; dup {
				t.Fatalf("segment %d enqueued twice on %T", ev.seq, ev.buf)
			}
			inflight[key{ev.buf, ev.seq}] = ev
			enqs++
		case "del":
			enq, ok := inflight[key{ev.buf, ev.seq}]
			if !ok {
				t.Fatalf("segment %d delivered without enqueue on %T", ev.seq, ev.buf)
			}
			delete(inflight, key{ev.buf, ev.seq})
			if enq.bytes != ev.bytes || enq.ctx != ev.ctx {
				t.Fatalf("segment %d mutated in flight: %+v -> %+v", ev.seq, enq, ev)
			}
			if ev.seq <= lastDelivered[ev.buf] {
				t.Fatalf("segment %d delivered after %d on the same buffer",
					ev.seq, lastDelivered[ev.buf])
			}
			lastDelivered[ev.buf] = ev.seq
			dels++
		}
	}
	return enqs, dels
}

// TestSocketAuditStream exercises both socket delivery paths — buffered
// (send before recv) and direct wake (recv blocked before the send) — plus
// listener injection, and checks the audit stream pairs exactly.
func TestSocketAuditStream(t *testing.T) {
	sink := &recordingSink{}
	k := newTestKernel(t, uniSpec, nil)
	k.Observer = sink

	a, b := NewConn()
	lst := NewListener("fe")

	// Receiver blocks first (direct-wake path), then drains two buffered
	// sends, then serves one injected listener request.
	receiver := Script(
		Recv(b),
		Recv(b),
		Recv(b),
		RecvListener(lst),
		Compute(1e5, cpu.Activity{IPC: 1}),
	)
	sender := Script(
		Call(func(k *Kernel, t *Task) { t.Ctx = "req-1" }),
		Sleep(sim.Millisecond), // let the receiver block: direct wake
		Send(a, 100, nil),
		Call(func(k *Kernel, t *Task) { t.Ctx = "req-2" }),
		Send(a, 200, nil), // buffered: receiver still running
		Send(a, 300, nil),
	)
	k.Spawn("recv", receiver, nil)
	k.Spawn("send", sender, nil)
	k.Eng.At(2*sim.Millisecond, func() { k.Inject(lst, 50, "req-3", nil) })
	k.Eng.Run()

	enqs, dels := checkPairing(t, sink.events)
	if enqs != 4 || dels != 4 {
		t.Fatalf("enqueues=%d deliveries=%d, want 4/4 (events: %+v)", enqs, dels, sink.events)
	}
}

// TestSocketAuditDisabledAssignsNoSeq checks the zero-cost path: without a
// sink installed, buffered segments keep seq 0 and no sequence counter
// advances.
func TestSocketAuditDisabledAssignsNoSeq(t *testing.T) {
	k := newTestKernel(t, uniSpec, nil)
	a, _ := NewConn()
	k.Spawn("send", Script(
		Send(a, 10, nil),
		Send(a, 20, nil),
	), nil)
	k.Eng.Run()
	if k.segSeq != 0 {
		t.Fatalf("segment sequence advanced to %d with auditing disabled", k.segSeq)
	}
	for i, seg := range a.sendBuf().segs.items {
		if seg.seq != 0 {
			t.Fatalf("buffered segment %d has audit seq %d, want 0", i, seg.seq)
		}
	}
}

// TestForkExitTagPropagation drives a three-level fork tree: the root binds
// to a request context, forks a child that forks a grandchild, and then
// rebinds to a different request. The paper's §3.3 rule — children inherit
// the binding at fork time and keep it independently thereafter — means the
// whole subtree stays on the original context while the root moves on.
func TestForkExitTagPropagation(t *testing.T) {
	mon := &recordingMonitor{}
	k := newTestKernel(t, uniSpec, mon)

	var childCtx, grandCtx, rootCtxAfter Context
	grand := Script(
		Call(func(k *Kernel, t *Task) { grandCtx = t.Ctx }),
		Compute(1e5, cpu.Activity{IPC: 1}),
	)
	child := Script(
		Call(func(k *Kernel, t *Task) { childCtx = t.Ctx }),
		Fork("grand", grand),
		WaitChild(),
	)
	root := Script(
		Call(func(k *Kernel, t *Task) { t.Ctx = "req-A" }),
		Fork("child", child),
		// Rebind the root while the subtree still runs on req-A.
		Call(func(k *Kernel, t *Task) { k.Rebind(t, "req-B") }),
		WaitChild(),
		Call(func(k *Kernel, t *Task) { rootCtxAfter = t.Ctx }),
	)
	k.Spawn("root", root, nil)
	k.Eng.Run()

	if childCtx != "req-A" || grandCtx != "req-A" {
		t.Fatalf("subtree contexts = %v/%v, want req-A/req-A", childCtx, grandCtx)
	}
	if rootCtxAfter != "req-B" {
		t.Fatalf("root context after rebind = %v, want req-B", rootCtxAfter)
	}
	if mon.forks != 2 {
		t.Fatalf("forks = %d, want 2", mon.forks)
	}
	// All three tasks exit: root, child, grandchild.
	if mon.exits != 3 {
		t.Fatalf("exits = %d, want 3", mon.exits)
	}
}
