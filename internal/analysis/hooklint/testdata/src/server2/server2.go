// Package server2 exercises hooklint's fact-based predicate helpers:
// a guard routed through hookutil.Enabled counts as a nil check because
// the helper's NilCheckParam fact crosses the package boundary.
package server2

import "hookutil"

// Probe carries an optional observer.
type Probe struct {
	Hook hookutil.Observer
}

// Fire guards through the imported predicate helper.
func (p *Probe) Fire() {
	if hookutil.Enabled(p.Hook) {
		p.Hook.Observe("fire") // ok: Enabled's fact vouches for p.Hook
	}
	p.Hook.Observe("bare") // want `call to p\.Hook\.Observe through hook interface Observer`
}

// Mislead guards through a predicate that checks the wrong way around.
func (p *Probe) Mislead() {
	if hookutil.Misleading(p.Hook) {
		p.Hook.Observe("mislead") // want `without a dominating`
	}
}

// WrongArg guards a different value than the one called through.
func (p *Probe) WrongArg(q *Probe) {
	if hookutil.Enabled(q.Hook) {
		p.Hook.Observe("wrong-arg") // want `without a dominating`
	}
}
