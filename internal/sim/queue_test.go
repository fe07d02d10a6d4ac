package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSlotRecyclingKeepsOrdering schedules-and-drains repeatedly so the
// wheel's bucket and dispatch-run slices are reused, and checks dispatch
// order stays correct.
func TestSlotRecyclingKeepsOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	for round := 0; round < 5; round++ {
		got = got[:0]
		base := e.Now()
		for i := 4; i >= 0; i-- {
			i := i
			e.At(base+Time(i)*Millisecond, func() { got = append(got, i) })
		}
		e.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("round %d: dispatch order %v", round, got)
			}
		}
	}
}

// TestSteadyStateScheduleIsAllocFree pins the engine's allocation
// contract: once the queue slices have grown to the working set,
// self-rescheduling churn (the shape of every kernel timer) must not
// allocate. The callback closure is created once, outside the measured
// region.
func TestSteadyStateScheduleIsAllocFree(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.After(Time(i)*Microsecond, func() {})
	}
	e.Run()
	var fn func()
	fn = func() { e.After(Microsecond, fn) }
	e.After(Microsecond, fn)
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
		t.Fatalf("steady-state step/reschedule allocates %.1f objects per run", allocs)
	}
}

// TestOverflowHeapInvariant schedules events beyond the wheel span, so
// every one enters the far-future heap, and checks the queue structure
// before, during and after the heap drains back into the wheel.
func TestOverflowHeapInvariant(t *testing.T) {
	e := NewEngine()
	r := NewRand(5)
	var fired []Time
	for i := 0; i < 512; i++ {
		at := Time(1)<<wheelSpanShift + Time(r.Intn(1<<20))<<18
		e.At(at, func() { fired = append(fired, at) })
	}
	if len(e.heap) != 512 {
		t.Fatalf("%d of 512 far-future events reached the heap", len(e.heap))
	}
	checkHeapInvariant(t, e)
	e.RunUntil(Time(3) << (wheelSpanShift - 1))
	checkHeapInvariant(t, e)
	e.Run()
	checkHeapInvariant(t, e)
	if len(fired) != 512 {
		t.Fatalf("fired %d of 512 events", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d at %d fired after %d", i, fired[i], fired[i-1])
		}
	}
}

// checkHeapInvariant verifies the far-future heap ordering, the wheel
// occupancy bitmaps, the sortedness of the dispatch run, and that the
// pending count matches the queued entries.
func checkHeapInvariant(t *testing.T, e *Engine) {
	t.Helper()
	queued := len(e.heap) + len(e.bottom) - e.bottomIdx
	for i := 1; i < len(e.heap); i++ {
		parent := (i - 1) / heapArity
		if entryLess(e.heap[i], e.heap[parent]) {
			t.Fatalf("heap invariant violated at index %d (parent %d)", i, parent)
		}
	}
	for i := e.bottomIdx + 1; i < len(e.bottom); i++ {
		if !entryLess(e.bottom[i-1], e.bottom[i]) {
			t.Fatalf("dispatch run out of order at index %d", i)
		}
	}
	for k := range e.lvl {
		for j := range e.lvl[k] {
			occupied := e.occ[k]&(1<<uint(j)) != 0
			if occupied != (len(e.lvl[k][j]) > 0) {
				t.Fatalf("occupancy bit (%d,%d)=%v but bucket has %d entries", k, j, occupied, len(e.lvl[k][j]))
			}
			queued += len(e.lvl[k][j])
		}
	}
	if queued != e.live {
		t.Fatalf("pending count %d, but queues hold %d entries", e.live, queued)
	}
}

// TestFiredClosuresAreReleased checks that the engine keeps no copy of a
// fired event's closure. Events land in wheel level 0, in a higher level
// (reaching level 0 by a cascade) and in the overflow heap; once all have
// fired, each closure's captured object must be collectable.
func TestFiredClosuresAreReleased(t *testing.T) {
	e := NewEngine()
	var released atomic.Int32
	times := []Time{
		Microsecond,              // level 0
		Time(1) << 20,            // level 1, cascaded down
		Time(1) << 30,            // level 3, cascaded down
		Time(1) << 37,            // overflow heap
		Time(1)<<37 + Time(1)<<8, // overflow heap, same span
	}
	for _, at := range times {
		scheduleCapturing(e, at, &released)
	}
	e.Run()
	want := int32(len(times))
	for i := 0; i < 100 && released.Load() < want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := released.Load(); got != want {
		t.Fatalf("%d of %d fired closures are still reachable from the engine", want-got, want)
	}
	runtime.KeepAlive(e)
}

// scheduleCapturing schedules an event whose closure alone references a
// fresh object, and counts that object's finalization.
func scheduleCapturing(e *Engine, at Time, released *atomic.Int32) {
	obj := new([64]byte)
	runtime.SetFinalizer(obj, func(*[64]byte) { released.Add(1) })
	e.At(at, func() { obj[0]++ })
}
