// Package audit mirrors the real audit package, which hooklint exempts:
// it is the home of the observer implementation, where collectors fan out
// over auditors that are non-nil by construction.
package audit

// Observer is the observation seam interface.
type Observer interface {
	Observe(kind string)
}

// Collector fans out to an observer it constructed itself.
type Collector struct {
	Obs Observer
}

// Emit is unguarded, but the package is out of hooklint's scope.
func (c *Collector) Emit() { c.Obs.Observe("emit") }
