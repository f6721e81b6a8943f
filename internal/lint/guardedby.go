package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Guardedby enforces lock discipline on annotated fields: a struct
// field carrying //sns:guardedby <mutex> may be loaded only while the
// named sibling mutex (sync.Mutex or sync.RWMutex, on the same base
// expression) is locked, and stored only under the write lock — RLock
// admits reads, not writes.
//
// The check is a linear walk of each function body tracking the lockset
// of canonical base expressions ("t.mu"): Lock/RLock add, Unlock/RUnlock
// remove, a deferred Unlock keeps the mutex held to the end of the
// function. Branch bodies (if/for/switch/select) are analyzed on a copy
// of the lockset; a lock released in a branch counts as released
// afterwards, a lock acquired in a branch does not survive it, and
// function literals start with an empty lockset (they may run on any
// goroutine later). Composite-literal construction is exempt: a
// constructor initializing fields before the value is shared needs no
// lock.
//
// Helper methods that require a caller-held mutex are annotated
// //sns:locked <mutex>: the body is checked with the mutex assumed
// held, and every call site must hold it.
var Guardedby = &Analyzer{
	Name: "guardedby",
	Wide: true,
	Doc: "requires every load of a //sns:guardedby field to happen under " +
		"Lock or RLock of the named mutex and every store under Lock, " +
		"checked through //sns:locked helper methods",
	Run: runGuardedby,
}

// Lock strengths: a write lock satisfies a read requirement.
const (
	lockNone = 0
	lockR    = 1
	lockW    = 2
)

func runGuardedby(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := &guardWalk{pass: pass, pr: pass.Prog, info: pass.Info}
			held := map[string]int{}
			if args, ok := markerArgs(fd.Doc, "sns:locked"); ok && fd.Recv != nil &&
				len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				recv := fd.Recv.List[0].Names[0].Name
				for _, m := range args {
					held[recv+"."+m] = lockW
				}
			}
			g.stmt(fd.Body, held)
		}
	}
}

type guardWalk struct {
	pass *Pass
	pr   *Program
	info *types.Info
}

// stmt walks one statement, mutating held in place.
func (g *guardWalk) stmt(s ast.Stmt, held map[string]int) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, st := range x.List {
			g.stmt(st, held)
		}
	case *ast.ExprStmt:
		g.expr(x.X, held)
		g.lockOp(x.X, held)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			g.expr(r, held)
		}
		for _, l := range x.Lhs {
			g.lhs(l, held)
		}
	case *ast.IncDecStmt:
		g.write(x.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the
		// function; any other deferred call is checked with the current
		// lockset (an approximation — defers run last).
		if g.isUnlock(x.Call) {
			return
		}
		g.expr(x.Call, held)
	case *ast.GoStmt:
		g.expr(x.Call, held)
	case *ast.SendStmt:
		g.expr(x.Chan, held)
		g.expr(x.Value, held)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			g.expr(r, held)
		}
	case *ast.DeclStmt:
		ast.Inspect(x, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				g.expr(e, held)
				return false
			}
			return true
		})
	case *ast.LabeledStmt:
		g.stmt(x.Stmt, held)
	case *ast.IfStmt:
		if x.Init != nil {
			g.stmt(x.Init, held)
		}
		g.expr(x.Cond, held)
		body := cloneLockset(held)
		g.stmt(x.Body, body)
		els := cloneLockset(held)
		if x.Else != nil {
			g.stmt(x.Else, els)
		}
		mergeReleases(held, body, els)
	case *ast.ForStmt:
		if x.Init != nil {
			g.stmt(x.Init, held)
		}
		if x.Cond != nil {
			g.expr(x.Cond, held)
		}
		body := cloneLockset(held)
		g.stmt(x.Body, body)
		if x.Post != nil {
			g.stmt(x.Post, body)
		}
		mergeReleases(held, body)
	case *ast.RangeStmt:
		g.expr(x.X, held)
		body := cloneLockset(held)
		g.stmt(x.Body, body)
		mergeReleases(held, body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			g.stmt(x.Init, held)
		}
		if x.Tag != nil {
			g.expr(x.Tag, held)
		}
		g.clauses(x.Body, held)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			g.stmt(x.Init, held)
		}
		g.clauses(x.Body, held)
	case *ast.SelectStmt:
		g.clauses(x.Body, held)
	}
}

// clauses walks each case body on its own lockset copy; a release in
// any clause propagates.
func (g *guardWalk) clauses(body *ast.BlockStmt, held map[string]int) {
	var after []map[string]int
	for _, cl := range body.List {
		c := cloneLockset(held)
		switch x := cl.(type) {
		case *ast.CaseClause:
			for _, e := range x.List {
				g.expr(e, c)
			}
			for _, st := range x.Body {
				g.stmt(st, c)
			}
		case *ast.CommClause:
			if x.Comm != nil {
				g.stmt(x.Comm, c)
			}
			for _, st := range x.Body {
				g.stmt(st, c)
			}
		}
		after = append(after, c)
	}
	mergeReleases(held, after...)
}

// lhs checks one assignment target: a guarded field (or an index into
// one) is a write; remaining subexpressions are reads.
func (g *guardWalk) lhs(l ast.Expr, held map[string]int) {
	switch x := ast.Unparen(l).(type) {
	case *ast.SelectorExpr:
		if g.guardOf(x) != "" {
			g.write(x, held)
			g.expr(x.X, held)
			return
		}
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && g.guardOf(sel) != "" {
			g.write(sel, held)
			g.expr(sel.X, held)
			g.expr(x.Index, held)
			return
		}
	case *ast.StarExpr:
		g.expr(x.X, held)
		return
	}
	g.expr(l, held)
}

// expr walks an expression tree checking guarded reads, //sns:locked
// call sites, and lock operations embedded in sub-calls.
func (g *guardWalk) expr(e ast.Expr, held map[string]int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// The closure may run later, on any goroutine: empty lockset.
			g.stmt(x.Body, map[string]int{})
			return false
		case *ast.SelectorExpr:
			g.access(x, held, lockR)
			return true
		case *ast.CallExpr:
			g.lockedCall(x, held)
			return true
		case *ast.KeyValueExpr:
			// Composite-literal construction: the key names a field of a
			// value nobody shares yet. Walk only the value.
			g.expr(x.Value, held)
			return false
		}
		return true
	})
}

// write checks one store target.
func (g *guardWalk) write(e ast.Expr, held map[string]int) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		g.access(x, held, lockW)
		g.expr(x.X, held)
	case *ast.IndexExpr:
		g.lhs(x, held)
	default:
		g.expr(e, held)
	}
}

// access reports a guarded-field touch lacking the required lock.
func (g *guardWalk) access(sel *ast.SelectorExpr, held map[string]int, need int) {
	mutex := g.guardOf(sel)
	if mutex == "" {
		return
	}
	key := canonExpr(sel.X) + "." + mutex
	got := held[key]
	fieldKey := g.fieldKey(sel)
	switch {
	case got == lockNone:
		g.pass.Reportf(sel.Pos(), "field %s is guarded by %q: access without %s held", fieldKey, mutex, key)
	case need == lockW && got == lockR:
		g.pass.Reportf(sel.Pos(), "field %s is guarded by %q: write under RLock of %s; writes need Lock", fieldKey, mutex, key)
	}
}

// guardOf returns the guarding mutex field name when sel is a guarded
// field access, "" otherwise.
func (g *guardWalk) guardOf(sel *ast.SelectorExpr) string {
	return g.pr.guarded[g.fieldKey(sel)]
}

// fieldKey returns sel's stable "pkgpath.Type.field" key, or "".
func (g *guardWalk) fieldKey(sel *ast.SelectorExpr) string {
	s, ok := g.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	key, ok := namedKey(s.Recv())
	if !ok {
		return ""
	}
	return key + "." + s.Obj().Name()
}

// lockedCall checks a call to an //sns:locked helper: the caller must
// hold the helper's mutex on the same receiver expression.
func (g *guardWalk) lockedCall(call *ast.CallExpr, held map[string]int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	callee := resolveCallee(g.info, call)
	if callee == nil {
		return
	}
	sf, ok := g.pr.funcs[callee.FullName()]
	if !ok {
		return
	}
	args, ok := markerArgs(sf.Decl.Doc, "sns:locked")
	if !ok {
		return
	}
	for _, m := range args {
		key := canonExpr(sel.X) + "." + m
		if held[key] == lockNone {
			g.pass.Reportf(call.Pos(), "call to %s requires %s held (//sns:locked)", callee.Name(), key)
		}
	}
}

// lockOp applies a Lock/RLock/Unlock/RUnlock statement to the lockset.
func (g *guardWalk) lockOp(e ast.Expr, held map[string]int) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if !isMutex(g.info.TypeOf(sel.X)) {
		return
	}
	key := canonExpr(sel.X)
	switch sel.Sel.Name {
	case "Lock":
		held[key] = lockW
	case "RLock":
		if held[key] < lockR {
			held[key] = lockR
		}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

// isUnlock reports whether call is mutex.Unlock or mutex.RUnlock.
func (g *guardWalk) isUnlock(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock" {
		return false
	}
	return isMutex(g.info.TypeOf(sel.X))
}

// isMutex reports whether t (possibly a pointer) is sync.Mutex or
// sync.RWMutex.
func isMutex(t types.Type) bool {
	return isSyncType(t, "Mutex") || isSyncType(t, "RWMutex")
}

// canonExpr renders a lock or receiver base expression to a canonical
// string ("t.mu", "s.cfg.state") so the same object named the same way
// matches between the Lock call and the guarded access.
func canonExpr(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return canonExpr(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return canonExpr(x.X)
	case *ast.UnaryExpr:
		return canonExpr(x.X)
	case *ast.IndexExpr:
		return canonExpr(x.X) + "[" + canonExpr(x.Index) + "]"
	case *ast.CallExpr:
		return canonExpr(x.Fun) + "()"
	}
	return fmt.Sprintf("?%d", e.Pos())
}

// cloneLockset copies a lockset for branch-local analysis.
func cloneLockset(held map[string]int) map[string]int {
	c := make(map[string]int, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// mergeReleases propagates releases out of branches: a key missing (or
// weakened) in any branch outcome is removed from (or weakened in) the
// pre-branch lockset. Acquisitions inside branches do not survive.
func mergeReleases(held map[string]int, branches ...map[string]int) {
	for k, v := range held {
		for _, b := range branches {
			if b[k] < v {
				v = b[k]
			}
		}
		if v == lockNone {
			delete(held, k)
		} else {
			held[k] = v
		}
	}
}
