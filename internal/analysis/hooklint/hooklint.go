// Package hooklint enforces the observation-seam convention: every call
// through the nil-able Observer interface (sim.Observer, the one seam
// every layer emits observations through) must be dominated by a nil
// check on the receiver, so that running without an observer costs a
// single predictable branch and never panics.
package hooklint

import (
	"go/ast"
	"go/types"

	"powercontainers/internal/analysis"
)

// hookInterfaceName is the named interface type that constitutes the
// nil-checked observation seam. It fires on every event dispatch, socket
// segment and sampling period, so an unguarded call would both panic
// without an observer installed and defeat the zero-cost default.
const hookInterfaceName = "Observer"

// scopeExcludedLast exempts the audit package itself: it is the home of
// the observer implementation, where collectors fan out over auditors
// that are non-nil by construction.
var scopeExcludedLast = []string{"audit"}

var Analyzer = &analysis.Analyzer{
	Name: "hooklint",
	Doc: "flags calls through the Observer hook interface that are " +
		"not guarded by a `hook != nil` check on the receiver",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if analysis.PathMatch(pass.Pkg.Path(), nil, scopeExcludedLast) {
		return nil
	}
	// A guard may be routed through a predicate helper — `if hookOK(h) {
	// h.Observe(...) }` — in this package or another: the helper's
	// NilCheckParam fact says which argument it proves non-nil.
	proves := func(call *ast.CallExpr) (int, bool) {
		fn := analysis.CalleeFunc(call, pass.TypesInfo)
		if fn == nil {
			return 0, false
		}
		ff, ok := pass.Facts.FuncFact(fn)
		if !ok || ff.NilCheckParam < 0 {
			return 0, false
		}
		return ff.NilCheckParam, true
	}
	for _, file := range pass.Files {
		analysis.WalkWithFacts(file, func(n ast.Node, facts []analysis.Fact) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			recvType := pass.TypesInfo.TypeOf(sel.X)
			name, isHook := hookInterface(recvType)
			if !isHook {
				return
			}
			recv := types.ExprString(sel.X)
			if !analysis.NilGuardedBy(facts, recv, proves) {
				pass.Reportf(call.Pos(), "call to %s.%s through hook interface %s without a dominating `%s != nil` check (observation seams are nil-checked by convention)", recv, sel.Sel.Name, name, recv)
			}
		})
	}
	return nil
}

// hookInterface reports whether t is (a pointer to) a named interface
// type whose name marks it as the observation seam.
func hookInterface(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	if _, isIface := n.Underlying().(*types.Interface); !isIface {
		return "", false
	}
	name := n.Obj().Name()
	return name, name == hookInterfaceName
}
