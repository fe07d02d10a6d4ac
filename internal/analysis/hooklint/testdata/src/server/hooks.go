// Package server is a hooklint fixture exercising the observation-seam
// convention on a locally declared Observer interface.
package server

// Observer is the observation seam; hooklint keys on the interface name.
type Observer interface {
	Observe(kind string)
}

// Ledger carries an optional observer, nil when observation is off.
type Ledger struct {
	Observer Observer
}

// Unguarded calls the hook without any nil check.
func (l *Ledger) Unguarded() {
	l.Observer.Observe("unguarded") // want `call to l\.Observer\.Observe through hook interface Observer`
}

// Guarded uses the canonical seam shape.
func (l *Ledger) Guarded() {
	if l.Observer != nil {
		l.Observer.Observe("guarded")
	}
}

// EarlyReturn guards with a negated check that exits the function.
func (l *Ledger) EarlyReturn() {
	if l.Observer == nil {
		return
	}
	l.Observer.Observe("early-return")
}

// AndChain guards inside a short-circuit conjunction.
func (l *Ledger) AndChain(ok bool) {
	if l.Observer != nil && ok {
		l.Observer.Observe("and-chain")
	}
}

// WrongBranch calls the hook inside the nil branch: the check exists but
// does not establish non-nilness, so the call must still be flagged.
func (l *Ledger) WrongBranch() {
	if l.Observer == nil {
		l.Observer.Observe("wrong-branch") // want `without a dominating`
	}
}

// Closure inherits the guard established at its creation site.
func (l *Ledger) Closure() func() {
	if l.Observer == nil {
		return func() {}
	}
	return func() { l.Observer.Observe("closure") }
}

// hookOK is a local nil-check predicate; its NilCheckParam fact lets the
// guard below count.
func hookOK(o Observer) bool { return o != nil }

// PredicateGuard routes the nil check through the helper.
func (l *Ledger) PredicateGuard() {
	if hookOK(l.Observer) {
		l.Observer.Observe("predicate")
	}
}

// Suppressed vouches for a receiver that is non-nil by construction.
func (l *Ledger) Suppressed() {
	l.Observer.Observe("suppressed") //pclint:allow hooklint fixture receiver is assigned in the constructor and never nil
}
