package sim

import (
	"container/heap"
	"fmt"
)

// This file preserves the classic container/heap event queue as a
// reference implementation. The wheel engine in clock.go must dispatch
// events in exactly the same (at, seq) order; the property and fuzz
// tests in equiv_test.go drive both engines with identical operation
// sequences and require bit-identical dispatch streams, and the engine
// benchmark reports the wheel's speedup over this path (its rows keep
// the historical names path=arena and path=ref).
//
// The reference engine is the original design: one heap-managed
// *refEvent allocation per scheduled event, with ordering semantics
// identical to Engine. It is deliberately not on any hot path and
// carries no //pclint:hotpath marks.

// refEvent is a scheduled callback in the reference engine.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refEngine is the reference discrete-event driver. Its public surface
// mirrors Engine method-for-method so tests can drive both generically.
type refEngine struct {
	now  Time
	heap refEventHeap
	seq  uint64
	obs  Observer
}

func newRefEngine() *refEngine { return &refEngine{} }

func (e *refEngine) SetObserver(o Observer) { e.obs = o }

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	heap.Push(&e.heap, &refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

func (e *refEngine) Pending() int { return len(e.heap) }

func (e *refEngine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*refEvent)
	if e.obs != nil {
		e.obs.Observe(Event{Kind: KindStep, T0: e.now, T: ev.at, Seq: ev.seq})
	}
	e.now = ev.at
	ev.fn()
	return true
}

func (e *refEngine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

func (e *refEngine) Run() {
	for e.Step() {
	}
}
