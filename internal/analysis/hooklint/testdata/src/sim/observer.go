// Package sim is a hooklint fixture for the engine's Observer seam: the
// per-dispatch observation fires on every event, so unguarded calls are
// both a panic hazard and a hot-path cost.
package sim

// Event is one observation.
type Event struct {
	T0, T int64
	Seq   uint64
}

// Observer sees every event dispatch; hooklint keys on the name.
type Observer interface {
	Observe(e Event)
}

// Engine carries an optional observer, nil when observation is off.
type Engine struct {
	obs Observer
	now int64
}

// StepUnguarded dispatches without checking the observer.
func (e *Engine) StepUnguarded(at int64, seq uint64) {
	e.obs.Observe(Event{T0: e.now, T: at, Seq: seq}) // want `call to e\.obs\.Observe through hook interface Observer`
}

// Step uses the canonical seam shape from internal/sim.Engine.Step.
func (e *Engine) Step(at int64, seq uint64) {
	if e.obs != nil {
		e.obs.Observe(Event{T0: e.now, T: at, Seq: seq})
	}
}

// Drain guards once with an early return and dispatches in a loop.
func (e *Engine) Drain(n int, seq uint64) {
	if e.obs == nil {
		return
	}
	for i := 0; i < n; i++ {
		e.obs.Observe(Event{T0: e.now, T: int64(i), Seq: seq})
	}
}

// WrongBranch calls inside the nil branch: the check exists but does
// not establish non-nilness.
func (e *Engine) WrongBranch(at int64, seq uint64) {
	if e.obs == nil {
		e.obs.Observe(Event{T0: e.now, T: at, Seq: seq}) // want `without a dominating`
	}
}
