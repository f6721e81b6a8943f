package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Statefield proves snapshot completeness: every field of a struct
// annotated //sns:persist <mirror> must be accounted for on both halves
// of the persistence round trip. A field passes when
//
//   - it is proven copied into the mirror struct on the encode path
//     (a field-assignment index over every function that writes the
//     mirror, with local-variable, range-variable, closure-parameter,
//     and one-level callee-summary carrier tracking) AND proven written
//     back on the decode path (any write to the live field in a
//     function reachable from code that reads the mirror), or
//   - it carries //sns:derived <fn> and that rebuild function is
//     reachable from the decode path, or
//   - it carries a justified //lint:statefield suppression.
//
// Fields of sync.* types are exempt (a restored process starts
// unlocked). This is the pass that would have caught PR 8's capacity
// bug — the un-persisted float accumulators whose rounding residue
// flipped (score, id) placement ties after a daemon restart — at `go
// vet` time instead of via fuzzing.
var Statefield = &Analyzer{
	Name: "statefield",
	Wide: true,
	Doc: "proves every field of a //sns:persist-annotated struct is copied " +
		"to and from its snapshot mirror, marked //sns:derived with the " +
		"rebuild function reachable from the restore path, or justified",
	Run: runStatefield,
}

func runStatefield(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Prog.statefieldFindings()[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// persistPair is one //sns:persist annotation: a live struct and the
// name of its serialized mirror in the same package.
type persistPair struct {
	pkg     *Package
	spec    *ast.TypeSpec
	liveKey string // "pkgpath.Name" of the live struct
	mirror  string // mirror type's name, resolved in the same package
}

// stateIndex is the program-wide evidence index the statefield proof
// consumes: per function, which struct fields its body reads and writes
// (keyed by the owning type's "pkgpath.Name"), and its static callees.
// Function literals are attributed to their enclosing declaration.
type stateIndex struct {
	order  []string                              // FullNames in load order
	reads  map[string]map[string]map[string]bool // fn -> typeKey -> fields read
	writes map[string]map[string]map[string]bool // fn -> typeKey -> fields written
	calls  map[string][]string                   // fn -> callee FullNames
}

// statefieldFindings runs the whole-program snapshot-completeness proof
// once per Program and caches the per-package findings.
func (pr *Program) statefieldFindings() map[*types.Package][]posFinding {
	pr.stateOnce.Do(func() {
		pr.stateMap = map[*types.Package][]posFinding{}
		if len(pr.persist) == 0 {
			return
		}
		idx := pr.buildStateIndex()
		keys := make([]string, 0, len(pr.persist))
		for k := range pr.persist {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pr.checkPersistPair(pr.persist[k], idx)
		}
	})
	return pr.stateMap
}

// buildStateIndex walks every function body once, recording field reads,
// field writes (assignment targets, index/deref targets, inc/dec, and
// composite-literal construction), and static call edges.
func (pr *Program) buildStateIndex() *stateIndex {
	idx := &stateIndex{
		reads:  map[string]map[string]map[string]bool{},
		writes: map[string]map[string]map[string]bool{},
		calls:  map[string][]string{},
	}
	add := func(m map[string]map[string]map[string]bool, fn, typeKey, field string) {
		byType := m[fn]
		if byType == nil {
			byType = map[string]map[string]bool{}
			m[fn] = byType
		}
		if byType[typeKey] == nil {
			byType[typeKey] = map[string]bool{}
		}
		byType[typeKey][field] = true
	}
	for _, pkg := range pr.Packages {
		info := pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := obj.FullName()
				idx.order = append(idx.order, fn)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.SelectorExpr:
						if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
							if key, ok := namedKey(sel.Recv()); ok {
								add(idx.reads, fn, key, sel.Obj().Name())
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							if key, field, ok := lvalueField(info, lhs); ok {
								add(idx.writes, fn, key, field)
							}
						}
					case *ast.IncDecStmt:
						if key, field, ok := lvalueField(info, x.X); ok {
							add(idx.writes, fn, key, field)
						}
					case *ast.CompositeLit:
						key, st, ok := structLit(info, x)
						if !ok {
							return true
						}
						for i, elt := range x.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									add(idx.writes, fn, key, id.Name)
								}
							} else if i < st.NumFields() {
								add(idx.writes, fn, key, st.Field(i).Name())
							}
						}
					case *ast.CallExpr:
						if callee := resolveCallee(info, x); callee != nil {
							if _, known := pr.funcs[callee.FullName()]; known {
								idx.calls[fn] = append(idx.calls[fn], callee.FullName())
							}
						}
					}
					return true
				})
			}
		}
	}
	return idx
}

// lvalueField resolves an assignment target to the struct field it
// mutates: a direct field selector, an index into a field (map/slice
// element writes mutate the field's contents), or a deref of either.
func lvalueField(info *types.Info, e ast.Expr) (typeKey, field string, ok bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel, found := info.Selections[x]
		if !found || sel.Kind() != types.FieldVal {
			return "", "", false
		}
		key, found := namedKey(sel.Recv())
		if !found {
			return "", "", false
		}
		return key, sel.Obj().Name(), true
	case *ast.IndexExpr:
		return lvalueField(info, x.X)
	case *ast.StarExpr:
		return lvalueField(info, x.X)
	}
	return "", "", false
}

// structLit resolves a composite literal to its defined struct type.
func structLit(info *types.Info, lit *ast.CompositeLit) (string, *types.Struct, bool) {
	tv, ok := info.Types[lit]
	if !ok {
		return "", nil, false
	}
	key, ok := namedKey(tv.Type)
	if !ok {
		return "", nil, false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return "", nil, false
	}
	return key, st, true
}

// isSyncPkgType reports whether t is (a pointer to) a type defined in
// package sync — mutexes, once cells, wait groups — which never persist.
func isSyncPkgType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == "sync"
}

// checkPersistPair proves one live-struct/mirror pair complete.
func (pr *Program) checkPersistPair(pair *persistPair, idx *stateIndex) {
	report := func(pos token.Pos, format string, args ...any) {
		pr.stateMap[pair.pkg.Types] = append(pr.stateMap[pair.pkg.Types],
			posFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	st, ok := pair.spec.Type.(*ast.StructType)
	if !ok {
		report(pair.spec.Pos(), "//sns:persist on %s, which is not a struct type", pair.liveKey)
		return
	}
	if _, ok := pair.pkg.Types.Scope().Lookup(pair.mirror).(*types.TypeName); !ok {
		report(pair.spec.Pos(), "//sns:persist names mirror %q, but package %s declares no such type",
			pair.mirror, pair.pkg.Path)
		return
	}
	mirrorKey := pair.pkg.Path + "." + pair.mirror

	// Decode cone: everything reachable from a function that reads the
	// mirror's fields (the Restore side and its helpers).
	cone := map[string]bool{}
	var queue []string
	for _, fn := range idx.order {
		if len(idx.reads[fn][mirrorKey]) > 0 {
			cone[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range idx.calls[fn] {
			if !cone[callee] {
				cone[callee] = true
				queue = append(queue, callee)
			}
		}
	}

	// Decode evidence: live fields written anywhere in the cone.
	decoded := map[string]bool{}
	for fn := range cone {
		for field := range idx.writes[fn][pair.liveKey] {
			decoded[field] = true
		}
	}

	// Encode evidence: live fields that flow into a mirror write, with
	// carrier tracking, in every function that writes the mirror.
	encoded := map[string]bool{}
	for _, fn := range idx.order {
		if len(idx.writes[fn][mirrorKey]) == 0 {
			continue
		}
		if sf, ok := pr.funcs[fn]; ok {
			pr.encodeEvidence(sf, pair.liveKey, mirrorKey, idx, encoded)
		}
	}

	for _, fld := range st.Fields.List {
		for _, nm := range fld.Names {
			fieldKey := pair.liveKey + "." + nm.Name
			if obj := pair.pkg.Info.Defs[nm]; obj != nil && isSyncPkgType(obj.Type()) {
				continue
			}
			if rebuild, isDerived := pr.derived[fieldKey]; isDerived {
				pr.checkDerived(pair, nm, rebuild, cone, report)
				continue
			}
			enc, dec := encoded[nm.Name], decoded[nm.Name]
			switch {
			case enc && dec:
			case !enc && !dec:
				report(nm.Pos(), "field %s of //sns:persist type %s is neither copied into mirror %s nor restored from it; persist it, mark it //sns:derived <fn>, or justify with //lint:statefield",
					nm.Name, pair.liveKey, pair.mirror)
			case !enc:
				report(nm.Pos(), "field %s of //sns:persist type %s is restored from mirror %s but never copied into it on the snapshot path",
					nm.Name, pair.liveKey, pair.mirror)
			default:
				report(nm.Pos(), "field %s of //sns:persist type %s is copied into mirror %s but never written back on the restore path",
					nm.Name, pair.liveKey, pair.mirror)
			}
		}
	}
}

// checkDerived proves a //sns:derived rebuild function exists and is
// reachable from the pair's decode cone.
func (pr *Program) checkDerived(pair *persistPair, nm *ast.Ident, rebuild string,
	cone map[string]bool, report func(token.Pos, string, ...any)) {
	found, reachable := false, false
	for name, sf := range pr.funcs {
		if sf.Pkg == pair.pkg && sf.Obj.Name() == rebuild {
			found = true
			if cone[name] {
				reachable = true
			}
		}
	}
	switch {
	case !found:
		report(nm.Pos(), "field %s declares //sns:derived %s, but package %s has no such function",
			nm.Name, rebuild, pair.pkg.Path)
	case !reachable:
		report(nm.Pos(), "field %s declares //sns:derived %s, but %s is not reachable from the restore path (no call chain from a %s-reading function)",
			nm.Name, rebuild, rebuild, pair.mirror)
	}
}

// encodeEvidence walks one mirror-writing function in source order,
// tracking which live-struct fields each local carries — direct field
// selectors, locals assigned from them, range variables over them,
// closure parameters of callbacks invoked on them, and results of
// callees whose bodies read the live struct (one-level summaries) — and
// records every live field that reaches a mirror write into out.
func (pr *Program) encodeEvidence(sf *SrcFunc, liveKey, mirrorKey string, idx *stateIndex, out map[string]bool) {
	info := sf.Pkg.Info
	carriers := map[types.Object]map[string]bool{}

	fieldsOf := func(e ast.Expr) map[string]bool {
		set := map[string]bool{}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					if key, ok := namedKey(sel.Recv()); ok && key == liveKey {
						set[sel.Obj().Name()] = true
					}
				}
			case *ast.Ident:
				if obj := info.Uses[x]; obj != nil {
					for f := range carriers[obj] {
						set[f] = true
					}
				}
			case *ast.CallExpr:
				if callee := resolveCallee(info, x); callee != nil {
					for f := range idx.reads[callee.FullName()][liveKey] {
						set[f] = true
					}
				}
			}
			return true
		})
		return set
	}
	taintObj := func(id *ast.Ident, taint map[string]bool) {
		if len(taint) == 0 {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if carriers[obj] == nil {
			carriers[obj] = map[string]bool{}
		}
		for f := range taint {
			carriers[obj][f] = true
		}
	}

	// ast.Inspect visits in source (pre-)order, so carrier updates from a
	// statement precede the visits of every later statement.
	ast.Inspect(sf.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				var taint map[string]bool
				if len(x.Rhs) == len(x.Lhs) {
					taint = fieldsOf(x.Rhs[i])
				} else {
					// Tuple assignment: every target shares the call's taint.
					taint = fieldsOf(x.Rhs[0])
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					taintObj(id, taint)
					continue
				}
				if key, _, ok := lvalueField(info, lhs); ok && key == mirrorKey {
					for f := range taint {
						out[f] = true
					}
				}
			}
		case *ast.RangeStmt:
			taint := fieldsOf(x.X)
			if len(taint) > 0 {
				if id, ok := x.Key.(*ast.Ident); ok {
					taintObj(id, taint)
				}
				if id, ok := x.Value.(*ast.Ident); ok {
					taintObj(id, taint)
				}
			}
		case *ast.CompositeLit:
			key, st, ok := structLit(info, x)
			if !ok || key != mirrorKey {
				return true
			}
			for i, elt := range x.Elts {
				var val ast.Expr
				if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
					val = kv.Value
				} else if i < st.NumFields() {
					val = elt
				} else {
					continue
				}
				for f := range fieldsOf(val) {
					out[f] = true
				}
			}
		case *ast.CallExpr:
			// Callback arguments of a method invoked on live state carry
			// that state: c.pending.Each(func(it Item) { ... }) hands each
			// queue item to the closure, so `it` carries c.pending.
			fun, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			taint := fieldsOf(fun.X)
			if len(taint) == 0 {
				return true
			}
			for _, arg := range x.Args {
				lit, isLit := ast.Unparen(arg).(*ast.FuncLit)
				if !isLit {
					continue
				}
				for _, p := range lit.Type.Params.List {
					for _, nm := range p.Names {
						taintObj(nm, taint)
					}
				}
			}
		}
		return true
	})
}
