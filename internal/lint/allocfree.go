package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Allocfree statically proves //sns:hotpath-annotated functions free of
// allocation-inducing constructs, transitively: starting from every
// annotated root it walks the call graph across packages and flags, in
// every reachable function,
//
//   - make / new / non-suppressed append,
//   - slice and map composite literals, and &composite literals (heap
//     escapes),
//   - function literals (closure allocation),
//   - string concatenation and string<->[]byte/[]rune conversions,
//   - map assignment (may trigger growth),
//   - go / defer statements,
//   - interface boxing: conversions and call arguments placing a
//     non-pointer concrete value into an interface,
//   - variadic calls (the argument slice),
//   - calls it cannot resolve to source: func-value calls and calls into
//     packages outside the analyzed set (a small stdlib allowlist —
//     math, container/heap — is known allocation-free).
//
// Calls through an interface are devirtualized against every type in the
// program that satisfies the interface; the proof then covers all
// possible targets. Deliberate warm-up-only allocations (scratch-buffer
// growth, free-list misses) are suppressed line by line with a justified
// //lint:allocfree directive. This is the static twin of the runtime
// zero-alloc gates in internal/exec/alloc_test.go: the gates prove one
// execution allocation-free, the pass proves every path.
var Allocfree = &Analyzer{
	Name: "allocfree",
	Doc: "proves //sns:hotpath functions allocation-free across the call " +
		"graph by flagging allocation-inducing constructs in every " +
		"reachable function",
	Run: runAllocfree,
}

// allocFreeStdlib are external packages whose functions are known not to
// allocate. container/heap only moves elements the caller owns; its
// dynamic dispatch targets are covered by annotating the concrete
// heap.Interface methods as hotpath roots; sync/atomic operations compile
// to single instructions.
var allocFreeStdlib = map[string]bool{
	"math":           true,
	"math/bits":      true,
	"container/heap": true,
	"sync/atomic":    true,
}

type allocFinding struct {
	pos token.Pos
	msg string
}

func runAllocfree(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, f := range pass.Prog.allocFindings()[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// AllocfreeCovered returns the sorted FullNames of every function the
// allocfree proof visits — the //sns:hotpath roots plus everything
// reachable from them. Tests use it to pin coverage of the runtime-gated
// hot paths.
func (pr *Program) AllocfreeCovered() []string {
	pr.allocFindings()
	out := make([]string, 0, len(pr.allocHot))
	for name := range pr.allocHot {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// allocFindings runs the interprocedural proof once per Program and
// caches the per-package findings.
func (pr *Program) allocFindings() map[*types.Package][]allocFinding {
	pr.allocOnce.Do(func() {
		pr.allocMap = map[*types.Package][]allocFinding{}
		pr.allocHot = map[string]*SrcFunc{}
		var queue []*SrcFunc
		for _, sf := range pr.HotpathRoots() {
			name := sf.Obj.FullName()
			if pr.allocHot[name] == nil {
				pr.allocHot[name] = sf
				queue = append(queue, sf)
			}
		}
		for len(queue) > 0 {
			sf := queue[0]
			queue = queue[1:]
			for _, callee := range pr.checkAllocFree(sf) {
				name := callee.Obj.FullName()
				if pr.allocHot[name] == nil {
					pr.allocHot[name] = callee
					queue = append(queue, callee)
				}
			}
		}
	})
	return pr.allocMap
}

// checkAllocFree flags allocation-inducing constructs in one reachable
// function and returns the source functions its static and devirtualized
// calls resolve to.
func (pr *Program) checkAllocFree(sf *SrcFunc) []*SrcFunc {
	if sf.Decl.Body == nil {
		return nil
	}
	info := sf.Pkg.Info
	tpkg := sf.Pkg.Types
	report := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		pr.allocMap[tpkg] = append(pr.allocMap[tpkg], allocFinding{
			pos: pos,
			msg: fmt.Sprintf("hotpath %s: %s", sf.Obj.Name(), msg),
		})
	}
	closures := localClosures(info, sf.Decl.Body)
	inlined := map[*ast.FuncLit]bool{}
	for _, lit := range closures {
		inlined[lit] = true
	}
	var callees []*SrcFunc
	ast.Inspect(sf.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// A closure bound once to a local variable that is only
			// ever called never escapes: it lives on the stack and its
			// body is simply part of this function.
			if inlined[x] {
				return true
			}
			report(x.Pos(), "function literal may allocate a closure")
			return false
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			report(x.Pos(), "defer may allocate its frame")
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(x.Pos(), "slice literal allocates")
				case *types.Map:
					report(x.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					report(x.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x.X)) {
				report(x.OpPos, "string concatenation allocates")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				ie, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				t := info.TypeOf(ie.X)
				if t == nil {
					continue
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					report(ie.Pos(), "map assignment may grow the map")
				}
			}
		case *ast.CallExpr:
			callees = append(callees, pr.checkCall(sf, x, closures, report)...)
		}
		return true
	})
	return callees
}

// localClosures finds function literals bound once via := to a local
// variable that is used only in call position. Such a closure cannot
// escape the function, so calling it is a static local jump, not an
// allocation or an unresolvable dynamic call.
func localClosures(info *types.Info, body *ast.BlockStmt) map[*types.Var]*ast.FuncLit {
	bound := map[*types.Var]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			bound[v] = lit
		}
		return true
	})
	if len(bound) == 0 {
		return nil
	}
	// Disqualify any variable that is also used outside call position
	// (passed, stored, reassigned): it may escape after all.
	callFun := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
				callFun[id] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callFun[id] {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			delete(bound, v)
		}
		return true
	})
	return bound
}

// checkCall classifies one call expression in a hot function: builtin,
// conversion, static call (followed), interface call (devirtualized), or
// dynamic call (flagged).
func (pr *Program) checkCall(sf *SrcFunc, call *ast.CallExpr, closures map[*types.Var]*ast.FuncLit, report func(token.Pos, string, ...any)) []*SrcFunc {
	info := sf.Pkg.Info
	tv := info.Types[call.Fun]

	// Conversions: free for numerics; boxing and string<->slice copy.
	if tv.IsType() {
		if len(call.Args) == 1 {
			checkConversionAlloc(info, tv.Type, call, report)
		}
		return nil
	}

	// Builtins: make/new/append allocate, the rest are free.
	if tv.IsBuiltin() {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array")
			}
		}
		return nil
	}

	// Resolve the callee.
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			callee = obj
		case *types.Var:
			if _, ok := closures[obj]; ok {
				return nil // non-escaping local closure; body walked in place
			}
			report(call.Pos(), "dynamic call through func value %s is not provably allocation-free", fun.Name)
			return nil
		default:
			report(call.Pos(), "dynamic call through func value %s is not provably allocation-free", fun.Name)
			return nil
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, isFunc := sel.Obj().(*types.Func)
			if !isFunc {
				report(call.Pos(), "dynamic call through func-valued field %s is not provably allocation-free", fun.Sel.Name)
				return nil
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				impls := pr.Implementations(iface, fn)
				if len(impls) == 0 {
					report(call.Pos(), "interface call %s has no analyzable implementation in the program", fn.Name())
					return nil
				}
				checkArgBoxing(info, fn, call, report)
				return impls
			}
			callee = fn
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			callee = fn // package-qualified call
		} else {
			report(call.Pos(), "dynamic call through %s is not provably allocation-free", fun.Sel.Name)
			return nil
		}
	default:
		report(call.Pos(), "dynamic call is not provably allocation-free")
		return nil
	}

	checkArgBoxing(info, callee, call, report)
	if target, ok := pr.FuncSource(callee); ok {
		return []*SrcFunc{target}
	}
	pkg := callee.Pkg()
	if pkg != nil && allocFreeStdlib[pkg.Path()] {
		return nil
	}
	report(call.Pos(), "call to %s outside the analyzed set is not provably allocation-free", callee.FullName())
	return nil
}

// checkConversionAlloc flags conversions that copy or box: string to/from
// byte/rune slices, and placing a non-pointer concrete value into an
// interface.
func checkConversionAlloc(info *types.Info, dst types.Type, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	argTV := info.Types[call.Args[0]]
	src := argTV.Type
	if src == nil {
		return
	}
	if isString(dst) != isString(src) {
		_, dstSlice := dst.Underlying().(*types.Slice)
		_, srcSlice := src.Underlying().(*types.Slice)
		if dstSlice || srcSlice {
			report(call.Pos(), "string conversion copies its data")
			return
		}
	}
	if types.IsInterface(dst) && mayBox(src, argTV) {
		report(call.Pos(), "conversion to interface may allocate a box")
	}
}

// checkArgBoxing flags arguments that box into interface parameters, and
// variadic expansion (which allocates the argument slice).
func checkArgBoxing(info *types.Info, callee *types.Func, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= params.Len() {
		report(call.Pos(), "variadic call to %s allocates its argument slice", callee.Name())
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			if call.Ellipsis != token.NoPos {
				pt = params.At(params.Len() - 1).Type()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		argTV := info.Types[arg]
		if mayBox(argTV.Type, argTV) {
			report(arg.Pos(), "argument boxes into interface parameter of %s", callee.Name())
		}
	}
}

// mayBox reports whether storing a value of type t into an interface can
// allocate: pointers, interfaces, and untyped nil are stored directly;
// constants are backed by static data.
func mayBox(t types.Type, tv types.TypeAndValue) bool {
	if t == nil || tv.Value != nil || tv.IsNil() {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
		return false
	}
	return true
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
