package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed interval of the traced run, in nanoseconds since the
// trace started. A span that aggregates many short calls (facility hooks,
// meter reads, sink records, filesystem calls) carries the call count and
// their summed busy time instead of one interval per call; its Start is
// -1.
type span struct {
	Name     string  `json:"name"`
	ID       int64   `json:"id,omitempty"`
	Start    int64   `json:"start_ns"`
	Busy     int64   `json:"busy_ns"`
	Count    int64   `json:"count"`
	Children []*span `json:"children,omitempty"`
}

// self returns the span's busy time that none of its children covers.
// Interval children are merged and clipped to the span; aggregated
// children count their busy time, since every traced call runs on the
// benchmark's single driving goroutine and cannot overlap another.
func (s *span) self() int64 {
	var covered int64
	var ivs [][2]int64
	for _, c := range s.Children {
		if c.Start < 0 {
			covered += c.Busy
			continue
		}
		lo, hi := max(c.Start, s.Start), min(c.Start+c.Busy, s.Start+s.Busy)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	end := int64(-1 << 62)
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			covered += iv[1] - lo
		}
		end = max(end, iv[1])
	}
	return max(s.Busy-covered, 0)
}

// agg is a count plus busy time.
type agg struct {
	N  int64
	Ns int64
}

func (a *agg) add(d time.Duration) { a.N++; a.Ns += int64(d) }

func (a agg) span(name string) *span { return &span{Name: name, Start: -1, Busy: a.Ns, Count: a.N} }

// Facility hook kinds the monitor wrapper counts.
const (
	hookInterrupt = iota
	hookSwitch
	hookBind
	hookFork
	hookExit
	hookIO
	hookTaskStart
	numHookKinds
)

// phase says which part of a traced tick is running, so meter reads are
// charged to the span that made them.
type phase int

const (
	phaseOther phase = iota
	phaseAdvance
	phaseConsume
)

// tickAcc collects what the seam wrappers observe during one tick.
type tickAcc struct {
	hooks          [numHookKinds]agg
	meterAdvance   agg
	meterConsume   agg
	meterSamples   int64
	sink           agg
	walWrite       agg
	walSync        agg
	walBytes       int64
	ckpt           agg // every call of a checkpoint write; N counts calls
	ckptBytes      int64
	ckptsPersisted int64
}

func (a *tickAcc) hookBusy() (n, ns int64) {
	for _, h := range a.hooks {
		n += h.N
		ns += h.Ns
	}
	return n, ns
}

func (a *tickAcc) fsBusy() int64 { return a.walWrite.Ns + a.walSync.Ns + a.ckpt.Ns }

// tickTrace is one traced tick: its boundaries in nanoseconds since the
// trace started, what the wrappers saw, and the Go runtime's allocation
// deltas over it.
type tickTrace struct {
	Tick         int
	T0, T1, T2   int64 // advance start, consume start, tick end
	Acc          tickAcc
	Records      int64
	AllocBytes   uint64
	AllocObjects uint64
}

// root builds the tick's span tree: sim.advance (facility hooks and the
// meter reads made while the simulation advanced), stream.consume (the
// engine's own work, with its meter reads) and stream.sink (with the
// durable layer's calls).
func (t *tickTrace) root() *span {
	a := &t.Acc
	var hooks agg
	hooks.N, hooks.Ns = a.hookBusy()
	advance := &span{Name: "sim.advance", Start: t.T0, Busy: t.T1 - t.T0, Count: 1,
		Children: []*span{hooks.span("core.hook"), a.meterAdvance.span("power.meter")}}
	consume := &span{Name: "stream.consume", Start: -1, Busy: t.T2 - t.T1 - a.sink.Ns, Count: 1,
		Children: []*span{a.meterConsume.span("power.meter")}}
	sink := a.sink.span("stream.sink")
	sink.Children = []*span{a.walWrite.span("durable.wal_write"), a.walSync.span("durable.wal_sync"), a.ckpt.span("durable.ckpt")}
	return &span{Name: "tick", ID: int64(t.Tick), Start: t.T0, Busy: t.T2 - t.T0, Count: 1,
		Children: []*span{advance, consume, sink}}
}

// tracer collects what the seam wrappers observe into cur; the driving
// loop closes each tick into its episode's tickTrace list, which is the
// traced run's in-memory span store.
type tracer struct {
	start time.Time
	phase phase
	cur   tickAcc

	inCkpt bool // a checkpoint write is between its temp-file create and its directory sync

	allocs *allocCounter
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), allocs: newAllocCounter()}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.start)) }

// allocCounter reads the Go runtime's cumulative heap allocations.
type allocCounter [2]metrics.Sample

func newAllocCounter() *allocCounter {
	var a allocCounter
	a[0].Name = "/gc/heap/allocs:bytes"
	a[1].Name = "/gc/heap/allocs:objects"
	return &a
}

func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a[:])
	return a[0].Value.Uint64(), a[1].Value.Uint64()
}

func (tr *tracer) hook(kind int, d time.Duration) { tr.cur.hooks[kind].add(d) }

func (tr *tracer) meter(d time.Duration, samples int) {
	if tr.phase == phaseConsume {
		tr.cur.meterConsume.add(d)
	} else {
		tr.cur.meterAdvance.add(d)
	}
	tr.cur.meterSamples += int64(samples)
}

// writeSpans writes every traced tick's span tree as JSON, grouped by
// episode, once, when the run ends.
func writeSpans(path string, eps []*episode) error {
	type episodeSpans struct {
		Episode int     `json:"episode"`
		Ticks   []*span `json:"ticks"`
	}
	out := make([]episodeSpans, len(eps))
	for i, ep := range eps {
		out[i].Episode = i
		for j := range ep.ticks {
			out[i].Ticks = append(out[i].Ticks, ep.ticks[j].root())
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
