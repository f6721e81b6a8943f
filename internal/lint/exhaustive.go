package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive requires every switch over a //sns:enum-annotated type to
// handle each declared constant of that type. A switch missing an arm
// is a finding at the switch; a `default` clause that silently absorbs
// unhandled constants is a finding at the default — a default is only
// clean when every constant already has an explicit arm (out-of-range
// defense) or the clause carries a justified //lint:exhaustive.
// Switches with non-constant case expressions are left alone: the pass
// only claims completeness where the arms are statically enumerable.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Wide: true,
	Doc: "requires switches over //sns:enum types to cover every declared " +
		"constant; a default clause that swallows unhandled values is a " +
		"finding unless every constant has an arm or the default is justified",
	Run: runExhaustive,
}

func runExhaustive(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	pr := pass.Prog
	if len(pr.enums) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pass.Info.Types[sw.Tag]
			if !ok {
				return true
			}
			key, ok := namedKey(tv.Type)
			if !ok || !pr.enums[key] {
				return true
			}
			checkEnumSwitch(pass, sw, tv.Type, key)
			return true
		})
	}
}

// checkEnumSwitch compares one switch's arms against the enum type's
// declared constant set.
func checkEnumSwitch(pass *Pass, sw *ast.SwitchStmt, tagType types.Type, key string) {
	declared := enumConstNames(tagType)
	if len(declared) == 0 {
		return
	}
	covered := map[string]bool{}
	var deflt *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			return
		}
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			name, ok := switchCaseConst(pass.Info, e, key)
			if !ok {
				// A non-constant arm (a variable, a call) can match any
				// value; completeness is not statically decidable here.
				return
			}
			covered[name] = true
		}
	}
	var missing []string
	for _, name := range declared {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	if deflt == nil {
		pass.Reportf(sw.Pos(),
			"switch over //sns:enum type %s is not exhaustive: missing %s",
			key, strings.Join(missing, ", "))
		return
	}
	pass.Reportf(deflt.Pos(),
		"default case swallows unhandled %s values: %s (enumerate them or justify with //lint:exhaustive)",
		key, strings.Join(missing, ", "))
}

// switchCaseConst resolves one case expression to a declared constant
// of the enum type named by key.
func switchCaseConst(info *types.Info, e ast.Expr, key string) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return "", false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok {
		return "", false
	}
	if k, ok := namedKey(c.Type()); !ok || k != key {
		return "", false
	}
	return c.Name(), true
}

// enumConstNames returns the names of every package-level constant of
// the defined type t, ordered by constant value then name. The scope of
// the type's own declaring package is authoritative, which keeps the
// lookup stable across the loader's duplicated type universes.
func enumConstNames(t types.Type) []string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	scope := named.Obj().Pkg().Scope()
	type cv struct {
		name string
		val  constant.Value
	}
	var consts []cv
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if k, ok := namedKey(c.Type()); !ok || k != key {
			continue
		}
		consts = append(consts, cv{name, c.Val()})
	}
	sort.SliceStable(consts, func(i, j int) bool {
		if c := constant.Compare(consts[i].val, token.LSS, consts[j].val); c {
			return true
		}
		if constant.Compare(consts[i].val, token.EQL, consts[j].val) {
			return consts[i].name < consts[j].name
		}
		return false
	})
	out := make([]string, len(consts))
	for i, c := range consts {
		out[i] = c.name
	}
	return out
}
