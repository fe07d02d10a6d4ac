// Package hookutil exports an observation seam interface and a nil-check
// predicate helper; the helper's NilCheckParam fact lets guards routed
// through it count across package boundaries.
package hookutil

// Observer is the observation seam interface.
type Observer interface {
	Observe(kind string)
}

// Enabled reports whether the observer is live.
func Enabled(o Observer) bool { return o != nil }

// Misleading is NOT a nil-check predicate: it must not vouch.
func Misleading(o Observer) bool { return o == nil }
