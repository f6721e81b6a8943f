package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Confine enforces goroutine confinement: state annotated with
// //sns:owner <name> — whole types ("//sns:owner core" on svc.Cluster)
// or individual struct fields ("//sns:owner scheduler" on the daemon's
// admission driver) — may be reached only from code proven to execute on
// the named owner goroutine.
//
// The proof is an interprocedural fixpoint over owner sets. Trusted
// roots are annotated by hand:
//
//   - //sns:goroutine <names...> on a function declares that its body
//     executes as the named owner goroutine(s) (the daemon's scheduler
//     loop, a replay's event loop). The annotation is the trust
//     boundary; its justification lives in the doc comment.
//   - //sns:dispatch <names...> on a function declares that function
//     literals passed to it as arguments execute on the named owner
//     goroutine (the daemon's exec/view, which convey closures over the
//     cmds channel to the scheduler loop).
//   - //sns:ownerinit on a constructor declares that it runs before the
//     owner goroutine exists, so it may touch anything (single-threaded
//     setup).
//
// Everything else is derived: a function's owner set is the
// intersection of its callers' owner sets; `main` runs on the anonymous
// main goroutine (no owners); a function referenced as a value or
// spawned directly with `go` may run anywhere (no owners); a function
// literal inherits its enclosing context unless it is a go-statement
// operand (fresh anonymous goroutine) or a dispatch argument. A
// function nobody references is vacuously unconstrained — the checks
// bite where new goroutines are actually minted, which is why every
// goroutine entry point must be annotated or spawned in view of the
// pass.
//
// An access to confined state from a context whose owner set does not
// include the state's owner is a finding. Inside the confined type's
// own methods, field access through the receiver is exempt — the
// boundary is enforced at the call sites of those methods, so one
// justified suppression covers one leak instead of smearing over every
// internal field touch.
var Confine = &Analyzer{
	Name: "confine",
	Wide: true,
	Doc: "proves //sns:owner-annotated types and fields are touched only by " +
		"code executing on the named owner goroutine, via a call-graph " +
		"fixpoint from //sns:goroutine roots and //sns:dispatch closures",
	Run: runConfine,
}

// posFinding is one cached interprocedural finding, reported later in
// the package that holds it (shared by confine and goleak).
type posFinding struct {
	pos token.Pos
	msg string
}

func runConfine(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Prog.confineFindings()[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// ownerSet is a set of owner-goroutine names, with ⊤ ("any context is
// fine") as the lattice top. ⊤ is the start value of the fixpoint and
// the owner set of //sns:ownerinit constructors.
type ownerSet struct {
	top   bool
	names map[string]bool
}

func ownerTop() ownerSet { return ownerSet{top: true} }

func ownerNames(names []string) ownerSet {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return ownerSet{names: m}
}

func (s ownerSet) has(name string) bool { return s.top || s.names[name] }

func (s ownerSet) intersect(o ownerSet) ownerSet {
	if s.top {
		return o
	}
	if o.top {
		return s
	}
	m := map[string]bool{}
	for n := range s.names {
		if o.names[n] {
			m[n] = true
		}
	}
	return ownerSet{names: m}
}

func (s ownerSet) equal(o ownerSet) bool {
	if s.top != o.top || len(s.names) != len(o.names) {
		return false
	}
	for n := range s.names {
		if !o.names[n] {
			return false
		}
	}
	return true
}

// confUnit is one execution context: a named function's body, or a
// function literal whose context is fixed (go operand, dispatch
// argument). Non-fixed units follow the owner set of the function fn.
type confUnit struct {
	fixed  bool
	owners ownerSet
	fn     string // (*types.Func).FullName(), when !fixed
}

// confAccess is one touch of confined state, checked after the fixpoint.
type confAccess struct {
	pos   token.Pos
	pkg   *types.Package
	owner string
	what  string
	unit  int
}

// confEdge is one static call: callee gains the caller unit's owners as
// an upper bound.
type confEdge struct {
	callee string
	unit   int
}

type confData struct {
	units    []confUnit
	accesses []confAccess
	edges    []confEdge
	tainted  map[string]bool // referenced as value or go target: may run anywhere
}

// confineFindings runs the whole-program confinement proof once per
// Program and caches the per-package findings.
func (pr *Program) confineFindings() map[*types.Package][]posFinding {
	pr.confOnce.Do(func() {
		pr.confMap = map[*types.Package][]posFinding{}
		pr.index()
		d := &confData{tainted: map[string]bool{}}
		for _, pkg := range pr.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch dc := decl.(type) {
					case *ast.FuncDecl:
						fn, ok := pkg.Info.Defs[dc.Name].(*types.Func)
						if !ok || dc.Body == nil {
							continue
						}
						pr.scanConfine(d, pkg, dc, fn)
					case *ast.GenDecl:
						if dc.Tok == token.VAR {
							scanValueTaints(d, pkg, pr, dc)
						}
					}
				}
			}
		}

		// Seed the fixpoint: annotations and entry points are fixed,
		// everything else starts at ⊤ and shrinks to the intersection of
		// its callers' contexts.
		owners := map[string]ownerSet{}
		fixed := map[string]bool{}
		for name, sf := range pr.funcs {
			switch {
			case hasMarker(sf.Decl.Doc, "sns:goroutine"):
				args, _ := markerArgs(sf.Decl.Doc, "sns:goroutine")
				owners[name] = ownerNames(args)
				fixed[name] = true
			case hasMarker(sf.Decl.Doc, "sns:ownerinit"):
				owners[name] = ownerTop()
				fixed[name] = true
			case sf.Pkg.Types.Name() == "main" && sf.Decl.Recv == nil && sf.Obj.Name() == "main":
				owners[name] = ownerNames(nil)
				fixed[name] = true
			case d.tainted[name]:
				owners[name] = ownerNames(nil)
				fixed[name] = true
			default:
				owners[name] = ownerTop()
			}
		}
		incoming := map[string][]int{}
		for _, e := range d.edges {
			incoming[e.callee] = append(incoming[e.callee], e.unit)
		}
		unitOwners := func(u int) ownerSet {
			unit := d.units[u]
			if unit.fixed {
				return unit.owners
			}
			return owners[unit.fn]
		}
		for changed := true; changed; {
			changed = false
			for name := range owners {
				if fixed[name] {
					continue
				}
				ns := ownerTop()
				for _, u := range incoming[name] {
					ns = ns.intersect(unitOwners(u))
				}
				if !ns.equal(owners[name]) {
					owners[name] = ns
					changed = true
				}
			}
		}

		for _, a := range d.accesses {
			if unitOwners(a.unit).has(a.owner) {
				continue
			}
			pr.confMap[a.pkg] = append(pr.confMap[a.pkg], posFinding{
				pos: a.pos,
				msg: fmt.Sprintf("%s is confined to goroutine %q and this context is not proven to run on it "+
					"(annotate the goroutine entry //sns:goroutine, route through an //sns:dispatch closure, or justify with //lint:confine)",
					a.what, a.owner),
			})
		}
	})
	return pr.confMap
}

// scanConfine records one function's execution units, call edges, value
// taints, and confined-state accesses into d.
func (pr *Program) scanConfine(d *confData, pkg *Package, decl *ast.FuncDecl, fn *types.Func) {
	info := pkg.Info

	// Receiver identity, for the in-method exemption on confined types.
	var recvObj types.Object
	recvKey := ""
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		recvObj = info.Defs[decl.Recv.List[0].Names[0]]
		if recvObj != nil {
			if key, ok := namedKey(recvObj.Type()); ok {
				recvKey = key
			}
		}
	}

	base := len(d.units)
	d.units = append(d.units, confUnit{fn: fn.FullName()})

	// Pass 1: carve out the function literals whose context differs from
	// their surroundings — go operands run on a fresh anonymous
	// goroutine, dispatch arguments run on the dispatch target's owner.
	type litSpan struct {
		pos, end token.Pos
		unit     int
	}
	var spans []litSpan
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				d.units = append(d.units, confUnit{fixed: true, owners: ownerNames(nil)})
				spans = append(spans, litSpan{lit.Pos(), lit.End(), len(d.units) - 1})
			}
		case *ast.CallExpr:
			callee := resolveCallee(info, x)
			if callee == nil {
				return true
			}
			sf, ok := pr.funcs[callee.FullName()]
			if !ok {
				return true
			}
			args, marked := markerArgs(sf.Decl.Doc, "sns:dispatch")
			if !marked {
				return true
			}
			for _, arg := range x.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					d.units = append(d.units, confUnit{fixed: true, owners: ownerNames(args)})
					spans = append(spans, litSpan{lit.Pos(), lit.End(), len(d.units) - 1})
				}
			}
		}
		return true
	})
	unitAt := func(pos token.Pos) int {
		best, bestSize := base, token.Pos(-1)
		for _, sp := range spans {
			if sp.pos <= pos && pos < sp.end && (bestSize < 0 || sp.end-sp.pos < bestSize) {
				best, bestSize = sp.unit, sp.end-sp.pos
			}
		}
		return best
	}

	// Idents consumed as a call's function are calls, not value
	// references; everything else naming a function taints it.
	callFunIdents := map[*ast.Ident]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				callFunIdents[fun] = true
			case *ast.SelectorExpr:
				callFunIdents[fun.Sel] = true
			}
		case *ast.GoStmt:
			goCalls[x.Call] = true
		}
		return true
	})

	// Pass 2: edges, taints, accesses.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			callee := resolveCallee(info, x)
			if callee == nil {
				return true
			}
			name := callee.FullName()
			if _, analyzed := pr.funcs[name]; analyzed {
				if goCalls[x] {
					// `go f()`: f runs on a fresh goroutine. Annotated
					// entries keep their declared owners (the seed wins).
					d.tainted[name] = true
				} else {
					d.edges = append(d.edges, confEdge{callee: name, unit: unitAt(x.Pos())})
				}
			}
			// A method call on a confined type is where confinement is
			// enforced: the caller's context must include the owner.
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				if key, ok := namedKey(sig.Recv().Type()); ok {
					if owner, confined := pr.owned[key]; confined {
						d.accesses = append(d.accesses, confAccess{
							pos: x.Pos(), pkg: pkg.Types, owner: owner,
							what: fmt.Sprintf("confined type %s (call to %s)", key, callee.Name()),
							unit: unitAt(x.Pos()),
						})
					}
				}
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			key, ok := namedKey(sel.Recv())
			if !ok {
				return true
			}
			fieldKey := key + "." + sel.Obj().Name()
			if owner, confined := pr.ownedField[fieldKey]; confined {
				d.accesses = append(d.accesses, confAccess{
					pos: x.Pos(), pkg: pkg.Types, owner: owner,
					what: fmt.Sprintf("confined field %s", fieldKey),
					unit: unitAt(x.Pos()),
				})
			}
			if owner, confined := pr.owned[key]; confined {
				// Receiver-field access inside the confined type's own
				// methods is exempt: the boundary is its method call sites.
				if recvObj != nil && key == recvKey {
					if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
						if info.Uses[id] == recvObj || info.Defs[id] == recvObj {
							return true
						}
					}
				}
				d.accesses = append(d.accesses, confAccess{
					pos: x.Pos(), pkg: pkg.Types, owner: owner,
					what: fmt.Sprintf("confined type %s (field %s)", key, sel.Obj().Name()),
					unit: unitAt(x.Pos()),
				})
			}
		case *ast.Ident:
			if callFunIdents[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				if _, analyzed := pr.funcs[fn.FullName()]; analyzed {
					d.tainted[fn.FullName()] = true
				}
			}
		}
		return true
	})
}

// scanValueTaints taints functions referenced from package-level var
// initializers (outside any function body), excluding call positions.
func scanValueTaints(d *confData, pkg *Package, pr *Program, decl *ast.GenDecl) {
	callFunIdents := map[*ast.Ident]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(c.Fun).(type) {
			case *ast.Ident:
				callFunIdents[fun] = true
			case *ast.SelectorExpr:
				callFunIdents[fun.Sel] = true
			}
		}
		return true
	})
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callFunIdents[id] {
			return true
		}
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			if _, analyzed := pr.funcs[fn.FullName()]; analyzed {
				d.tainted[fn.FullName()] = true
			}
		}
		return true
	})
}

// resolveCallee resolves a call expression to the *types.Func it
// statically invokes: direct calls, method calls, package-qualified
// calls. Builtins, conversions, interface dispatch, and calls through
// func values resolve to nil.
func resolveCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if _, iface := sel.Recv().Underlying().(*types.Interface); iface {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namedKey returns the stable "pkgpath.Name" key of t's defined type,
// unwrapping one level of pointer.
func namedKey(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return "", false
	}
	return tn.Pkg().Path() + "." + tn.Name(), true
}
