// Package sim provides the deterministic discrete-event simulation core
// used by every substrate in this repository: a virtual clock measured in
// nanoseconds, an event queue with stable FIFO ordering for simultaneous
// events, and a seeded pseudo-random number generator.
//
// All simulated machines in an experiment share one Engine so that a
// heterogeneous cluster advances on a single virtual timeline. (Sharded
// cluster runs use one Engine per node plus a deterministic merge; see
// internal/cluster.)
package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time = int64

// Convenient durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// FormatTime renders a virtual time as a human-readable duration string.
func FormatTime(t Time) string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", t)
	}
}

// Queue geometry.
//
// The near horizon is a hierarchical bit-indexed calendar: wheelLevels
// levels of 64 buckets each, level k bucketing time by bits
// [l0Shift+6k, l0Shift+6k+6) of the absolute timestamp. Level 0 buckets
// span 2^12 ns ≈ 4.1 µs; the whole wheel spans 2^36 ns ≈ 68.7 s, which
// covers every experiment horizon in this repository. Events beyond the
// current wheel span go to an index-addressed d-ary min-heap and drain
// into the wheel in bulk when the clock reaches their span, so each
// event pays at most one heap traversal and a constant number of bucket
// hops regardless of how many events are pending.
const (
	heapArity   = 4  // fan-out of the far-future min-heap
	l0Shift     = 12 // log2 of the level-0 bucket width in ns
	levelBits   = 6  // log2 of the bucket count per wheel level
	wheelLevels = 4
	bucketCount = 1 << levelBits
	// wheelSpanShift is the log2 of the full wheel span: timestamps that
	// differ from the wheel position in bits at or above this go to the
	// overflow heap.
	wheelSpanShift = l0Shift + wheelLevels*levelBits
)

// heapEntry is one pending event as seen by the queue (heap, bucket or
// sorted dispatch run): the ordering keys (at, seq) inline, so compares
// touch nothing else, and the callback to run.
type heapEntry struct {
	at  Time
	seq uint64
	fn  func()
}

// entryLess is the total event order: virtual time, then schedule
// sequence (FIFO among simultaneous events). Buckets partition by time
// and every dispatch run is sorted with this comparator, so the engine
// dispatches in exactly this order no matter which structure an event
// passed through — which is what keeps it bit-identical to the
// container/heap reference path.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// entryCmp adapts entryLess for slices.SortFunc. Distinct entries never
// compare equal ((at, seq) is a total order), so sort instability cannot
// reorder them.
func entryCmp(a, b heapEntry) int {
	if entryLess(a, b) {
		return -1
	}
	if entryLess(b, a) {
		return 1
	}
	return 0
}

// sortRun orders one dispatch run by (at, seq). Buckets fill in
// schedule order, and simulated work is heavily simultaneous (quantum
// expiries, sampling periods and request batches land on shared
// boundaries), so runs are very often already sorted — an O(n) prepass
// catches that before paying for a sort. Otherwise small runs take an
// inlined insertion sort and big ones fall back to slices.SortFunc.
// All three paths produce the same total order, so the choice never
// affects dispatch sequence.
//
//pclint:hotpath
func sortRun(b []heapEntry) {
	sorted := true
	for i := 1; i < len(b); i++ {
		if entryLess(b[i], b[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if len(b) <= 24 {
		for i := 1; i < len(b); i++ {
			ent := b[i]
			j := i
			for j > 0 && entryLess(ent, b[j-1]) {
				b[j] = b[j-1]
				j--
			}
			b[j] = ent
		}
		return
	}
	slices.SortFunc(b, entryCmp)
}

// Engine is a discrete-event simulation driver. Pending events sit in a
// hierarchical timing wheel (near horizon) backed by an index-addressed
// d-ary min-heap (far horizon); dispatch consumes one sorted level-0
// bucket at a time. Scheduling allocates nothing once warm: the bucket,
// dispatch-run and heap slices reuse their capacity, and the caller
// allocates the closure. Every slot the engine vacates is zeroed, so a
// fired closure becomes unreachable. It is not safe for concurrent use;
// an entire experiment runs on one goroutine.
type Engine struct {
	now Time
	seq uint64
	obs Observer

	// wheelPos is the start time of the level-0 bucket most recently
	// consumed into bottom, always l0-aligned. The wheel invariant:
	// level-k buckets only hold events inside the current level-(k+1)
	// bucket's window, and the heap only holds events beyond the current
	// wheel span.
	wheelPos Time

	// bottom is the current dispatch run: the most recently consumed
	// level-0 bucket, sorted by (at, seq), consumed from bottomIdx.
	// Events scheduled into the current bucket window are
	// insertion-sorted into the unconsumed tail.
	bottom    []heapEntry
	bottomIdx int

	// lvl/occ are the wheel buckets and their occupancy bitmaps; bit j
	// of occ[k] is set iff lvl[k][j] is nonempty.
	lvl [wheelLevels][bucketCount][]heapEntry
	occ [wheelLevels]uint64

	// heap is the d-ary min-heap of far-future events, ordered by
	// (at, seq).
	heap []heapEntry

	// live counts pending (scheduled, not yet fired) events.
	live int
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// SetObserver installs the observer of every dispatch (nil to disable).
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// Observer returns the installed dispatch observer, if any.
func (e *Engine) Observer() Observer { return e.obs }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it indicates a causality bug in the caller, not a recoverable condition.
//
//pclint:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now)) //pclint:allow hotalloc panic path: formats only when a causality bug fires
	}
	e.seq++
	e.live++
	ent := heapEntry{at: t, seq: e.seq, fn: fn}
	if t>>l0Shift <= e.wheelPos>>l0Shift {
		// At or behind the level-0 bucket the dispatcher is currently
		// consuming (peek may advance the wheel cursor ahead of the
		// clock, so t can trail it): insertion-sort into the unconsumed
		// tail of bottom, which dispatches strictly before every bucket
		// still in the wheel.
		lo, hi := e.bottomIdx, len(e.bottom)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if entryLess(e.bottom[mid], ent) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		e.bottom = append(e.bottom, heapEntry{}) //pclint:allow hotalloc dispatch-run growth is bounded by the peak bucket population
		copy(e.bottom[lo+1:], e.bottom[lo:])
		e.bottom[lo] = ent
	} else {
		e.scatter(ent)
	}
}

// scatter files an entry into the wheel level picked by the highest
// timestamp bit differing from the wheel position, or into the overflow
// heap when it lies beyond the wheel span. Callers guarantee
// t >= wheelPos and t outside the current bottom bucket.
//
//pclint:hotpath
func (e *Engine) scatter(ent heapEntry) {
	x := uint64(ent.at ^ e.wheelPos)
	for k := 0; k < wheelLevels; k++ {
		if x>>(l0Shift+(k+1)*levelBits) == 0 {
			j := (ent.at >> (l0Shift + k*levelBits)) & (bucketCount - 1)
			e.lvl[k][j] = append(e.lvl[k][j], ent) //pclint:allow hotalloc bucket growth; steady state reuses bucket capacity
			e.occ[k] |= 1 << uint(j)
			return
		}
	}
	e.heapPush(ent)
}

// After schedules fn to run d nanoseconds from now.
//
//pclint:hotpath
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// peek positions bottomIdx on the next pending event, consuming wheel
// buckets as needed. It reports whether any pending event exists. peek
// mutates cursor state but never changes dispatch order.
//
//pclint:hotpath
func (e *Engine) peek() bool {
	return e.bottomIdx < len(e.bottom) || e.advance()
}

// advance moves the wheel to its next occupied source and loads one
// sorted level-0 bucket into bottom. It reports false when no events
// remain anywhere. Each event is touched a bounded number of times on
// its way down (heap drain → level hops → one sort), which is what makes
// steady-state dispatch O(1) amortized regardless of pending count.
//
//pclint:hotpath
func (e *Engine) advance() bool {
	for {
		// Level 0: consume the next occupied bucket in the current span.
		i := uint((e.wheelPos >> l0Shift) & (bucketCount - 1))
		if m := e.occ[0] >> i << i; m != 0 {
			j := uint(bits.TrailingZeros64(m))
			e.wheelPos = e.wheelPos&^(1<<(l0Shift+levelBits)-1) | Time(j)<<l0Shift
			e.occ[0] &^= 1 << j
			b := e.lvl[0][j]
			if len(b) > 1 {
				sortRun(b)
			}
			// Swap backing arrays: both reuse capacity, and Step has
			// already zeroed every slot of the outgoing run.
			e.lvl[0][j] = e.bottom[:0]
			e.bottom = b
			e.bottomIdx = 0
			return true
		}
		// Levels 1..n: rescatter the next occupied bucket one level down.
		cascaded := false
		for k := 1; k < wheelLevels; k++ {
			shift := uint(l0Shift + k*levelBits)
			i := uint((e.wheelPos >> shift) & (bucketCount - 1))
			m := e.occ[k] >> i << i
			if m == 0 {
				continue
			}
			j := uint(bits.TrailingZeros64(m))
			e.wheelPos = e.wheelPos&^(1<<(shift+levelBits)-1) | Time(j)<<shift
			e.occ[k] &^= 1 << j
			b := e.lvl[k][j]
			e.lvl[k][j] = b[:0]
			for _, ent := range b {
				e.scatter(ent) // targets strictly lower levels: safe while iterating b
			}
			clear(b) // the copies moved down; drop their closures here
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		// Overflow heap: jump the wheel to the next span with events and
		// drain that span's entries into it.
		if len(e.heap) > 0 {
			e.wheelPos = e.heap[0].at &^ (1<<l0Shift - 1)
			for len(e.heap) > 0 && uint64(e.heap[0].at^e.wheelPos)>>wheelSpanShift == 0 {
				ent := e.heap[0]
				e.heapPop()
				e.scatter(ent)
			}
			continue
		}
		return false
	}
}

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return e.live }

// Step runs the next event, if any, advancing the clock to its time.
// It reports whether an event ran.
//
//pclint:hotpath
func (e *Engine) Step() bool {
	if !e.peek() {
		return false
	}
	ent := e.bottom[e.bottomIdx]
	e.bottom[e.bottomIdx] = heapEntry{}
	e.bottomIdx++
	e.live--
	if e.obs != nil {
		e.obs.Observe(Event{Kind: KindStep, T0: e.now, T: ent.at, Seq: ent.seq})
	}
	e.now = ent.at
	ent.fn()
	return true
}

// RunUntil runs events with time ≤ t, then advances the clock to exactly t.
// Events scheduled during the run are honored if they fall within the bound.
func (e *Engine) RunUntil(t Time) {
	for e.peek() && e.bottom[e.bottomIdx].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Run drains every pending event, including ones scheduled along the way.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// heapPush adds an entry to the far-future d-ary min-heap.
//
//pclint:hotpath
func (e *Engine) heapPush(ent heapEntry) {
	e.heap = append(e.heap, ent) //pclint:allow hotalloc heap growth is bounded by the peak far-future event count
	e.siftUp(len(e.heap) - 1)
}

// heapPop removes heap[0], restoring the heap invariant.
//
//pclint:hotpath
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	moved := e.heap[n]
	e.heap[n] = heapEntry{} // past the new length: drop the stale copy's closure
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = moved
		e.siftDown(0)
	}
}

// siftUp restores the heap invariant upward from index i.
//
//pclint:hotpath
func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !entryLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// siftDown restores the heap invariant downward from index i.
//
//pclint:hotpath
func (e *Engine) siftDown(i int) {
	h := e.heap
	ent := h[i]
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if !entryLess(h[best], ent) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ent
}
