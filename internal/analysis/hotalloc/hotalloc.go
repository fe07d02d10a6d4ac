// Package hotalloc enforces the steady-state zero-allocation discipline
// on functions marked //pclint:hotpath: the event-clock, kernel, recorder
// and facility fast paths that simulated events drive. Inside a hotpath
// function it flags every allocating construct the scanner recognizes —
// growing appends, make/new, composite and closure literals, string
// concatenation and copies, fmt calls, interface boxing — and every call
// to a module function whose fact summary says it allocates, so the
// discipline holds transitively across package boundaries.
//
// An append dominated by a len/cap capacity check is accepted as
// non-growing. Deliberate cold paths (free-list refills, first-use
// growth) are waived site-by-site with `//pclint:allow hotalloc <reason>`;
// a waiver also prunes the site from the function's exported summary, so
// the vouching extends to callers. Allocations in functions the module
// calls but does not compile (the standard library) are invisible —
// container/heap and friends must be waived or avoided by hand.
package hotalloc

import (
	"go/ast"
	"go/types"

	"powercontainers/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocations (and calls to allocating module functions) inside " +
		"//pclint:hotpath functions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	own := pass.Facts.Pkg(pass.Pkg.Path())
	if own == nil {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := analysis.FuncKey(obj)
			if !own.Funcs[key].Hotpath {
				continue
			}
			checkHot(pass, fd, obj)
		}
	}
	return nil
}

func checkHot(pass *analysis.Pass, fd *ast.FuncDecl, self *types.Func) {
	info := pass.TypesInfo
	for _, a := range analysis.AllocScan(fd.Body, info) {
		pass.Reportf(a.Pos, "hotpath %s: %s", fd.Name.Name, a.Desc)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(call, info)
		if fn == nil || fn == self {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			return true // already reported by the direct scan
		}
		if ff, ok := pass.Facts.FuncFact(fn); ok && len(ff.Allocs) > 0 {
			pass.Reportf(call.Pos(), "hotpath %s: call to %s which allocates: %s",
				fd.Name.Name, fn.Name(), ff.Allocs[0].What)
		}
		return true
	})
}
