package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// HotpathDirective marks a function declaration whose steady-state body
// (and everything it calls) must stay allocation-free.
const HotpathDirective = "//pclint:hotpath"

// SeedDirective registers a package-level constant or variable as an
// experiment seed root for seedflow provenance.
const SeedDirective = "//pclint:seed"

// unitPrefix introduces a `// unit:` override in a declaration's doc or
// trailing comment.
const unitPrefix = "unit:"

// GatherFacts is pass 1 of the cross-package analysis: it walks one
// type-checked package and computes its exported fact set — unit
// overrides, seed parameters and sources, hotpath marks, allocation
// summaries, and nil-check predicates — consuming the already-computed
// facts of its dependencies from deps.
//
// It returns the facts, the set of suppression-directive slots consumed
// during gathering (a //pclint:allow hotalloc waiver that pruned a site
// from a summary is not stale), and any diagnostics about malformed
// directives encountered while gathering.
func GatherFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, deps *FactStore) (*PackageFacts, map[DirectiveKey]bool, []Diagnostic) {
	facts := NewPackageFacts(pkg.Path())
	used := map[DirectiveKey]bool{}
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Analyzer: "pclint", Message: fmt.Sprintf(format, args...)})
	}

	gatherMarks(files, info, facts, report)

	// Collect per-function structure.
	waived := hotallocWaivers(fset, files)
	var fns []*funcInfo
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{
				key:     FuncKey(obj),
				params:  IntParams(fd, info),
				trusted: LitParams(fd.Body, info),
				defs:    LocalDefs(fd.Body, info),
				returns: ownReturns(fd.Body),
			}
			if hasDirective(fd.Doc, HotpathDirective) {
				fi.hotpath = true
			}
			fi.nilCheck = nilCheckParam(fd, info)
			fi.intResult = singleIntResult(obj)
			// Local allocation sites, minus waived ones.
			for _, a := range AllocScan(fd.Body, info) {
				if slot, ok := waiverSlot(fset, waived, a.Pos); ok {
					used[slot] = true
					continue
				}
				fi.allocs = append(fi.allocs, a)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					fi.calls = append(fi.calls, call)
				}
				return true
			})
			fns = append(fns, fi)
		}
	}

	gatherSeeds(fns, pkg, info, facts, deps)
	gatherAllocSummaries(fset, fns, pkg, info, facts, deps, waived, used)

	for _, fi := range fns {
		ff := facts.Funcs[fi.key]
		ff.Hotpath = fi.hotpath
		ff.NilCheckParam = fi.nilCheck
		facts.Funcs[fi.key] = ff
	}
	// Drop empty summaries to keep vetx files small: a missing entry and
	// an all-zero entry mean the same thing to consumers, except for
	// Allocs, where presence distinguishes "proven clean" from
	// "unknown"; bodies were scanned for every declaration above, so
	// every scanned function keeps its entry.
	return facts, used, diags
}

type funcInfo struct {
	key       string
	hotpath   bool
	nilCheck  int
	intResult bool
	allocs    []ScannedAlloc
	calls     []*ast.CallExpr
	params    map[types.Object]int
	trusted   map[types.Object]bool
	defs      map[types.Object][]ast.Expr
	returns   []*ast.ReturnStmt
}

// gatherMarks extracts comment-driven facts: `// unit:` overrides on
// consts, vars, struct fields and function results, and //pclint:seed
// registrations.
func gatherMarks(files []*ast.File, info *types.Info, facts *PackageFacts, report func(token.Pos, string, ...any)) {
	checkUnit := func(pos token.Pos, spec string) bool {
		if _, _, err := ParseUnit(spec); err != nil {
			report(pos, "bad // unit: override: %v", err)
			return false
		}
		return true
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if spec, pos, ok := unitLine(d.Doc); ok && checkUnit(pos, spec) {
					obj, _ := info.Defs[d.Name].(*types.Func)
					if obj != nil {
						facts.Units[ResultKey(FuncKey(obj), 0)] = spec
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						groups := []*ast.CommentGroup{d.Doc, s.Doc, s.Comment}
						var unit string
						var uok bool
						for _, g := range groups {
							if spec, pos, ok := unitLine(g); ok && checkUnit(pos, spec) {
								unit, uok = spec, true
							}
						}
						seed := false
						for _, g := range groups {
							if hasDirective(g, SeedDirective) {
								seed = true
							}
						}
						for _, name := range s.Names {
							if uok {
								facts.Units[name.Name] = unit
							}
							if seed {
								facts.SeedConsts[name.Name] = true
							}
						}
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok || st.Fields == nil {
							continue
						}
						for _, f := range st.Fields.List {
							spec, pos, ok := unitLine(f.Doc)
							if !ok {
								spec, pos, ok = unitLine(f.Comment)
							}
							if !ok || !checkUnit(pos, spec) {
								continue
							}
							for _, name := range f.Names {
								facts.Units[FieldKey(s.Name.Name, name.Name)] = spec
							}
						}
					}
				}
			}
		}
	}
}

// seedPrimitiveLast names the packages (by import-path last segment) that
// implement the RNG primitives and therefore export no seed facts; it must
// stay in sync with seedflow's own scope exclusion.
var seedPrimitiveLast = []string{"sim", "runner"}

// gatherSeeds runs the intra-package fixpoint that discovers seed
// parameters (integer parameters flowing into an RNG seed position) and
// seed sources (functions returning a well-derived seed).
func gatherSeeds(fns []*funcInfo, pkg *types.Package, info *types.Info, facts *PackageFacts, deps *FactStore) {
	// The RNG primitives themselves are exempt: inside sim and runner,
	// integer parameters (Fork labels, stream indices) are generator
	// implementation details, not caller-side seed obligations. The
	// blessed entry points (sim.NewRand, runner.SeedFor, Rand methods)
	// are recognized intrinsically and need no exported facts.
	if PathMatch(pkg.Path(), nil, seedPrimitiveLast) {
		return
	}
	seedParams := map[string]map[int]bool{}
	seedSource := map[string]bool{}
	lookup := func(fn *types.Func) (FuncFact, bool) {
		if fn.Pkg() == pkg {
			key := FuncKey(fn)
			sp := seedParams[key]
			if len(sp) == 0 && !seedSource[key] {
				return FuncFact{}, false
			}
			return FuncFact{SeedParams: sortedInts(sp), SeedSource: seedSource[key]}, true
		}
		return deps.FuncFact(fn)
	}
	isSeedConst := func(obj types.Object) bool {
		if obj.Pkg() == pkg && facts.SeedConsts[obj.Name()] {
			return true
		}
		return deps.SeedConst(obj)
	}
	mark := func(key string, used map[int]bool, changed *bool) {
		for p := range used {
			if seedParams[key] == nil {
				seedParams[key] = map[int]bool{}
			}
			if !seedParams[key][p] {
				seedParams[key][p] = true
				*changed = true
			}
		}
	}
	for changed, rounds := true, 0; changed && rounds < len(fns)+2; rounds++ {
		changed = false
		for _, fi := range fns {
			ev := &SeedEval{Info: info, Lookup: lookup, IsSeedConst: isSeedConst, Params: fi.params, Trusted: fi.trusted, Defs: fi.defs}
			for _, call := range fi.calls {
				for _, idx := range SeedArgPositions(call, info, lookup) {
					if idx >= len(call.Args) {
						continue
					}
					u := map[int]bool{}
					if ev.IsSeed(call.Args[idx], u) {
						mark(fi.key, u, &changed)
					}
				}
			}
			if fi.intResult && len(fi.returns) > 0 && !seedSource[fi.key] {
				// A function is a seed source only if every return is a
				// seed AND each derivation is grounded in a concrete root
				// (SeedFor, a Rand draw, a registered constant, a seed
				// field, or another seed source). Without the grounding
				// requirement every integer passthrough — ChipOf(core) —
				// would be promoted to a source and drag its parameter
				// into the obligation graph.
				ok := true
				u := map[int]bool{}
				for _, r := range fi.returns {
					if len(r.Results) != 1 {
						ok = false
						break
					}
					isSeed, grounded := ev.IsSeedGrounded(r.Results[0], u)
					if !isSeed || !grounded {
						ok = false
						break
					}
				}
				if ok {
					seedSource[fi.key] = true
					changed = true
					mark(fi.key, u, &changed)
				}
			}
		}
	}
	for _, fi := range fns {
		if len(seedParams[fi.key]) == 0 && !seedSource[fi.key] {
			continue
		}
		ff := facts.Funcs[fi.key]
		ff.SeedParams = sortedInts(seedParams[fi.key])
		ff.SeedSource = seedSource[fi.key]
		facts.Funcs[fi.key] = ff
	}
}

// SeedArgPositions returns the argument indices of call that must hold
// provenance-correct seeds: position 0 of sim.NewRand and runner.SeedFor,
// plus any parameter the callee's fact summary marks as a seed parameter.
func SeedArgPositions(call *ast.CallExpr, info *types.Info, lookup func(*types.Func) (FuncFact, bool)) []int {
	if IsNewRandCall(call, info) || IsSeedForCall(call, info) {
		return []int{0}
	}
	fn := calleeObject(call, info)
	if fn == nil || lookup == nil {
		return nil
	}
	if ff, ok := lookup(fn); ok && len(ff.SeedParams) > 0 {
		return ff.SeedParams
	}
	return nil
}

// gatherAllocSummaries propagates "allocates" through the intra-package
// call graph (dependency packages' summaries are already transitive) and
// records each function's representative allocation sites.
func gatherAllocSummaries(fset *token.FileSet, fns []*funcInfo, pkg *types.Package, info *types.Info, facts *PackageFacts, deps *FactStore, waived map[DirectiveKey]bool, used map[DirectiveKey]bool) {
	const maxSites = 8
	local := map[string]*funcInfo{}
	for _, fi := range fns {
		local[fi.key] = fi
	}
	// calleeAllocs reports whether a static callee allocates, with a
	// representative description.
	calleeAllocs := func(caller *funcInfo, fn *types.Func, allocating map[string]bool) (string, bool) {
		if fn.Pkg() == pkg {
			key := FuncKey(fn)
			if key == caller.key {
				return "", false // self-recursion
			}
			if g, ok := local[key]; ok && allocating[key] {
				if len(g.allocs) > 0 {
					return g.allocs[0].Desc, true
				}
				return "transitively allocates", true
			}
			return "", false
		}
		if ff, ok := deps.FuncFact(fn); ok && len(ff.Allocs) > 0 {
			return ff.Allocs[0].What, true
		}
		return "", false
	}
	allocating := map[string]bool{}
	for _, fi := range fns {
		allocating[fi.key] = len(fi.allocs) > 0
	}
	for changed, rounds := true, 0; changed && rounds < len(fns)+2; rounds++ {
		changed = false
		for _, fi := range fns {
			if allocating[fi.key] {
				continue
			}
			for _, call := range fi.calls {
				fn := calleeObject(call, info)
				if fn == nil {
					continue
				}
				if _, ok := waiverSlot(fset, waived, call.Pos()); ok {
					continue
				}
				if _, allocs := calleeAllocs(fi, fn, allocating); allocs {
					allocating[fi.key] = true
					changed = true
					break
				}
			}
		}
	}
	for _, fi := range fns {
		var sites []AllocSite
		for _, a := range fi.allocs {
			if len(sites) >= maxSites {
				break
			}
			sites = append(sites, AllocSite{Kind: a.Kind, What: fmt.Sprintf("%s at %s", a.Desc, shortPos(fset, a.Pos))})
		}
		seen := map[string]bool{}
		for _, call := range fi.calls {
			if len(sites) >= maxSites {
				break
			}
			fn := calleeObject(call, info)
			if fn == nil || seen[fn.FullName()] {
				continue
			}
			if slot, ok := waiverSlot(fset, waived, call.Pos()); ok {
				if desc, allocs := calleeAllocs(fi, fn, allocating); allocs {
					_ = desc
					used[slot] = true
				}
				continue
			}
			if desc, allocs := calleeAllocs(fi, fn, allocating); allocs {
				seen[fn.FullName()] = true
				sites = append(sites, AllocSite{Kind: "call", What: fmt.Sprintf("calls %s at %s: %s", fn.Name(), shortPos(fset, call.Pos()), desc)})
			}
		}
		if len(sites) == 0 {
			continue
		}
		ff := facts.Funcs[fi.key]
		ff.Allocs = sites
		facts.Funcs[fi.key] = ff
	}
}

// hotallocWaivers collects the line slots covered by well-formed
// `//pclint:allow hotalloc <reason>` directives; they prune allocation
// sites from fact summaries as well as suppressing diagnostics.
func hotallocWaivers(fset *token.FileSet, files []*ast.File) map[DirectiveKey]bool {
	out := map[DirectiveKey]bool{}
	for _, d := range Directives(fset, files, func(n string) bool { return n == "hotalloc" }) {
		if d.Malformed != "" || d.Analyzer != "hotalloc" {
			continue
		}
		out[DirectiveKey{d.File, d.Line, "hotalloc"}] = true
		out[DirectiveKey{d.File, d.Line + 1, "hotalloc"}] = true
	}
	return out
}

func waiverSlot(fset *token.FileSet, waived map[DirectiveKey]bool, pos token.Pos) (DirectiveKey, bool) {
	posn := fset.Position(pos)
	k := DirectiveKey{posn.Filename, posn.Line, "hotalloc"}
	if waived[k] {
		return k, true
	}
	return DirectiveKey{}, false
}

// nilCheckParam recognizes the `func f(..., p T, ...) bool { return p != nil }`
// predicate shape and returns p's index, or -1.
func nilCheckParam(fd *ast.FuncDecl, info *types.Info) int {
	if fd.Body == nil || len(fd.Body.List) != 1 {
		return -1
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return -1
	}
	be, ok := ast.Unparen(ret.Results[0]).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return -1
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	var target ast.Expr
	switch {
	case isNilIdent(y):
		target = x
	case isNilIdent(x):
		target = y
	default:
		return -1
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return -1
	}
	obj := info.Uses[id]
	if obj == nil || fd.Type.Params == nil {
		return -1
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == obj {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

func singleIntResult(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return isIntegerType(sig.Results().At(0).Type())
}

// ownReturns collects the return statements belonging to the function
// itself, not to nested function literals.
func ownReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n)
		}
		return true
	})
	return out
}

// hasDirective reports whether a comment group contains a line starting
// with the directive.
func hasDirective(g *ast.CommentGroup, directive string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// unitLine extracts the payload of the first `// unit: <spec>` line in a
// comment group.
func unitLine(g *ast.CommentGroup) (string, token.Pos, bool) {
	if g == nil {
		return "", token.NoPos, false
	}
	for _, c := range g.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, unitPrefix) {
			continue
		}
		spec := text[len(unitPrefix):]
		// Tolerate a trailing comment on the override line.
		if i := strings.Index(spec, "//"); i >= 0 {
			spec = spec[:i]
		}
		return strings.TrimSpace(spec), c.Pos(), true
	}
	return "", token.NoPos, false
}

func sortedInts(set map[int]bool) []int {
	if len(set) == 0 {
		return nil
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	posn := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(posn.Filename), posn.Line)
}
