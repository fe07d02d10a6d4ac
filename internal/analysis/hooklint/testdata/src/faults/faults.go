// Package faults is a hooklint fixture mirroring the fault-injection
// subsystem's observation seam: fault emission sites report through an
// optional Observer and must guard it like every other emitter.
package faults

// Event is one observation.
type Event struct {
	Name, Class string
}

// Observer sees injected faults; nil disables observation.
type Observer interface {
	Observe(e Event)
}

// Plan carries the optional observer.
type Plan struct {
	Observer Observer
}

// emitUnguarded reports a fault without the nil guard.
func (p *Plan) emitUnguarded(e Event) {
	p.Observer.Observe(e) // want `call to p\.Observer\.Observe through hook interface Observer`
}

// emit is the canonical guarded emission seam.
func (p *Plan) emit(e Event) {
	if p.Observer != nil {
		p.Observer.Observe(e)
	}
}
