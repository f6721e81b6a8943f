package lint

import (
	"go/ast"
	"go/types"
)

// Goleak requires every `go` statement in the program to carry a
// statically provable join or termination path, so no refactor can
// silently orphan a goroutine:
//
//   - WaitGroup join: the spawned body calls Done (possibly deferred)
//     on a WaitGroup that some code in the program Waits on — the
//     ForEach / load-generator fan-out shape.
//   - Done-channel join: the spawned body closes a channel that some
//     code in the program receives from — the daemon's run/Shutdown
//     quit+done pair.
//   - Close-terminated worker: the spawned function's body is a
//     `for range ch` loop over a channel parameter (or field) that some
//     code in the program closes — a persistent pool's parked workers.
//
// Identity is matched by object for locals (the WaitGroup declared two
// lines above the go statement) and by stable "pkgpath.Type.field" /
// "pkgpath.name" keys for fields and package variables, so the close or
// Wait may live in a different method or package than the spawn.
// Goroutines that are process-lifetime by design (a daemon's accept
// loop) carry a justified //lint:goleak directive instead.
var Goleak = &Analyzer{
	Name: "goleak",
	Wide: true,
	Doc: "requires every go statement to have a provable join or termination " +
		"path: a WaitGroup Done/Wait pair, a done-channel close/receive " +
		"pair, or a close-terminated worker loop",
	Run: runGoleak,
}

func runGoleak(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Prog.goleakFindings()[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// leakIndex is the program-wide table of join evidence: channels that
// are closed, channels that are received from, and WaitGroups that are
// waited on. Keys are types.Object for locals and strings for fields
// and package-level variables (see chanKey).
type leakIndex struct {
	closes map[any]bool
	recvs  map[any]bool
	waits  map[any]bool
}

// goleakFindings runs the whole-program leak proof once per Program and
// caches the per-package findings.
func (pr *Program) goleakFindings() map[*types.Package][]posFinding {
	pr.leakOnce.Do(func() {
		pr.leakMap = map[*types.Package][]posFinding{}
		pr.index()
		idx := &leakIndex{closes: map[any]bool{}, recvs: map[any]bool{}, waits: map[any]bool{}}
		for _, pkg := range pr.Packages {
			for _, f := range pkg.Files {
				pr.indexJoins(idx, pkg, f)
			}
		}
		for _, pkg := range pr.Packages {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if !pr.goJoinProven(idx, pkg, g) {
						pr.leakMap[pkg.Types] = append(pr.leakMap[pkg.Types], posFinding{
							pos: g.Pos(),
							msg: "goroutine has no provable join or termination path " +
								"(add a WaitGroup Done/Wait pair, a done-channel close/receive pair, " +
								"or a close-terminated worker loop; justify process-lifetime goroutines with //lint:goleak)",
						})
					}
					return true
				})
			}
		}
	})
	return pr.leakMap
}

// indexJoins records every close, channel receive, and WaitGroup Wait in
// one file.
func (pr *Program) indexJoins(idx *leakIndex, pkg *Package, f *ast.File) {
	info := pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) == 1 {
					if k, ok := chanKey(info, x.Args[0]); ok {
						idx.closes[k] = true
					}
				}
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if isSyncType(info.TypeOf(sel.X), "WaitGroup") {
					if k, ok := chanKey(info, sel.X); ok {
						idx.waits[k] = true
					}
				}
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				if k, ok := chanKey(info, x.X); ok {
					idx.recvs[k] = true
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					if k, ok := chanKey(info, x.X); ok {
						idx.recvs[k] = true
					}
				}
			}
		}
		return true
	})
}

// goJoinProven checks one go statement against the three join shapes.
func (pr *Program) goJoinProven(idx *leakIndex, pkg *Package, g *ast.GoStmt) bool {
	info := pkg.Info

	// Resolve the spawned body: a literal, or a named function/method.
	var body *ast.BlockStmt
	bodyPkg := pkg
	var calleeDecl *ast.FuncDecl
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if callee := resolveCallee(info, g.Call); callee != nil {
		if sf, ok := pr.FuncSource(callee); ok {
			body = sf.Decl.Body
			bodyPkg = sf.Pkg
			calleeDecl = sf.Decl
		}
	}
	if body == nil {
		return false
	}
	bodyInfo := bodyPkg.Info

	proven := false
	ast.Inspect(body, func(n ast.Node) bool {
		if proven {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			// WaitGroup join: the body Dones a group somebody Waits on.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if isSyncType(bodyInfo.TypeOf(sel.X), "WaitGroup") {
					if k, ok := chanKey(bodyInfo, sel.X); ok && idx.waits[k] {
						proven = true
					}
				}
			}
			// Done-channel join: the body closes a channel somebody
			// receives from.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := bodyInfo.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) == 1 {
					if k, ok := chanKey(bodyInfo, x.Args[0]); ok && idx.recvs[k] {
						proven = true
					}
				}
			}
		case *ast.RangeStmt:
			// Close-terminated worker: the body ranges over a channel
			// somebody closes. A channel parameter maps back to the go
			// call's argument in the spawning function.
			t := bodyInfo.TypeOf(x.X)
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				return true
			}
			k, ok := chanKey(bodyInfo, x.X)
			if !ok {
				return true
			}
			if calleeDecl != nil {
				if i, isParam := paramIndex(bodyInfo, calleeDecl, x.X); isParam && i < len(g.Call.Args) {
					if ak, ok := chanKey(info, g.Call.Args[i]); ok {
						k = ak
					}
				}
			}
			if idx.closes[k] {
				proven = true
			}
		}
		return true
	})
	return proven
}

// chanKey resolves an expression naming a channel or WaitGroup to a
// stable identity: the types.Object for locals, "field:pkgpath.Type.f"
// for struct fields, "var:pkgpath.name" for package variables.
func chanKey(info *types.Info, e ast.Expr) (any, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return nil, false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "var:" + v.Pkg().Path() + "." + v.Name(), true
		}
		return v, true
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if key, ok := namedKey(sel.Recv()); ok {
				return "field:" + key + "." + sel.Obj().Name(), true
			}
			return nil, false
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "var:" + v.Pkg().Path() + "." + v.Name(), true
		}
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			return chanKey(info, x.X)
		}
	}
	return nil, false
}

// paramIndex reports whether e names a parameter of decl and at which
// flattened position.
func paramIndex(info *types.Info, decl *ast.FuncDecl, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := info.Uses[id]
	if obj == nil {
		return 0, false
	}
	i := 0
	for _, fld := range decl.Type.Params.List {
		for _, nm := range fld.Names {
			if info.Defs[nm] == obj {
				return i, true
			}
			i++
		}
	}
	return 0, false
}

// isSyncType reports whether t (possibly a pointer) is sync.<name>.
func isSyncType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == name
}
