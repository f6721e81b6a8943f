package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// A Program bundles every loaded package with lazily-built cross-package
// indexes, so the interprocedural passes (unitflow, allocfree) can follow
// declarations and calls across package boundaries while the repo is
// type-checked exactly once per process.
//
// Identity note: the loader type-checks each target package directly and
// resolves its imports through a shared source importer, so the same
// package can exist twice in the type universe (once checked directly,
// once as somebody's import). All indexes are therefore keyed by stable
// strings — (*types.Func).FullName() for functions, "pkgpath.Name" for
// types — never by object pointers.
type Program struct {
	Packages []*Package

	once     sync.Once
	funcs    map[string]*SrcFunc // (*types.Func).FullName() -> declaration
	units    map[string]bool     // "pkgpath.Name" of //sns:unit types
	hotroots []*SrcFunc          // //sns:hotpath functions, in load order

	// Concurrency-contract annotations (see confine.go / guardedby.go):
	// owned maps //sns:owner-marked type keys to their owner-goroutine
	// name, ownedField the same for individual struct fields
	// ("pkgpath.Type.field"), and guarded maps //sns:guardedby-marked
	// field keys to the name of the mutex field that must be held.
	owned      map[string]string
	ownedField map[string]string
	guarded    map[string]string

	// State-integrity annotations (see statefield.go / exhaustive.go):
	// persist maps //sns:persist-marked live types ("pkgpath.Name") to
	// their declared mirror pair, derived maps field keys
	// ("pkgpath.Type.field") to the //sns:derived rebuild function name,
	// and enums holds the //sns:enum type keys whose switches must be
	// exhaustive.
	persist map[string]*persistPair
	derived map[string]string
	enums   map[string]bool

	implMu sync.Mutex
	impls  map[string][]*SrcFunc // interface-method FullName -> source impls

	allocOnce sync.Once
	allocHot  map[string]*SrcFunc
	allocMap  map[*types.Package][]allocFinding

	confOnce sync.Once
	confMap  map[*types.Package][]posFinding

	leakOnce sync.Once
	leakMap  map[*types.Package][]posFinding

	stateOnce sync.Once
	stateMap  map[*types.Package][]posFinding
}

// SrcFunc is a function declaration paired with the package that holds
// its source and type information.
type SrcFunc struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// NewProgram wraps loaded packages for interprocedural analysis. Index
// construction is deferred until a pass first needs it.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Packages: pkgs}
}

// hasMarker reports whether the doc comment carries the //sns:<name>
// marker (alone or followed by explanatory text). Marker names are
// prefix-free checked: "sns:unit" does not match "sns:unitctor".
func hasMarker(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == name || strings.HasPrefix(text, name+" ") {
			return true
		}
	}
	return false
}

// markerArgs returns the whitespace-separated arguments of the
// //sns:<name> marker in doc ("//sns:owner core" -> ["core"]) and
// whether the marker is present at all. Like hasMarker, names are
// prefix-free checked.
func markerArgs(doc *ast.CommentGroup, name string) ([]string, bool) {
	if doc == nil {
		return nil, false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == name {
			return nil, true
		}
		if strings.HasPrefix(text, name+" ") {
			return strings.Fields(text[len(name)+1:]), true
		}
	}
	return nil, false
}

// index builds the function and unit-type tables on first use.
func (pr *Program) index() {
	pr.once.Do(func() {
		pr.funcs = map[string]*SrcFunc{}
		pr.units = map[string]bool{}
		pr.owned = map[string]string{}
		pr.ownedField = map[string]string{}
		pr.guarded = map[string]string{}
		pr.persist = map[string]*persistPair{}
		pr.derived = map[string]string{}
		pr.enums = map[string]bool{}
		for _, pkg := range pr.Packages {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
						if !ok {
							continue
						}
						sf := &SrcFunc{Pkg: pkg, Decl: d, Obj: fn}
						pr.funcs[fn.FullName()] = sf
						if hasMarker(d.Doc, "sns:hotpath") {
							pr.hotroots = append(pr.hotroots, sf)
						}
					case *ast.GenDecl:
						if d.Tok != token.TYPE {
							continue
						}
						for _, spec := range d.Specs {
							ts, ok := spec.(*ast.TypeSpec)
							if !ok {
								continue
							}
							typeKey := pkg.Path + "." + ts.Name.Name
							if hasMarker(ts.Doc, "sns:unit") ||
								(len(d.Specs) == 1 && hasMarker(d.Doc, "sns:unit")) {
								pr.units[typeKey] = true
							}
							if args, ok := markerArgs(ts.Doc, "sns:owner"); ok && len(args) == 1 {
								pr.owned[typeKey] = args[0]
							} else if len(d.Specs) == 1 {
								if args, ok := markerArgs(d.Doc, "sns:owner"); ok && len(args) == 1 {
									pr.owned[typeKey] = args[0]
								}
							}
							if hasMarker(ts.Doc, "sns:enum") ||
								(len(d.Specs) == 1 && hasMarker(d.Doc, "sns:enum")) {
								pr.enums[typeKey] = true
							}
							if args, ok := typeMarkerArgs(d, ts, "sns:persist"); ok && len(args) == 1 {
								pr.persist[typeKey] = &persistPair{
									pkg:     pkg,
									spec:    ts,
									liveKey: typeKey,
									mirror:  args[0],
								}
							}
							st, ok := ts.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								if args, ok := markerArgs(fld.Doc, "sns:owner"); ok && len(args) == 1 {
									for _, nm := range fld.Names {
										pr.ownedField[typeKey+"."+nm.Name] = args[0]
									}
								}
								if args, ok := markerArgs(fld.Doc, "sns:guardedby"); ok && len(args) == 1 {
									for _, nm := range fld.Names {
										pr.guarded[typeKey+"."+nm.Name] = args[0]
									}
								}
								if args, ok := markerArgs(fld.Doc, "sns:derived"); ok && len(args) == 1 {
									for _, nm := range fld.Names {
										pr.derived[typeKey+"."+nm.Name] = args[0]
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// typeMarkerArgs reads a marker off a type declaration, accepting both
// comment placements gofmt produces: on the TypeSpec (grouped decls) and
// on the GenDecl (the common single-spec `type Foo struct { ... }`).
func typeMarkerArgs(d *ast.GenDecl, ts *ast.TypeSpec, name string) ([]string, bool) {
	if args, ok := markerArgs(ts.Doc, name); ok {
		return args, true
	}
	if len(d.Specs) == 1 {
		return markerArgs(d.Doc, name)
	}
	return nil, false
}

// PersistPairs returns the //sns:persist annotation table: live type
// keys ("pkgpath.Name") mapped to the mirror type's name in the same
// package. Tests pin the real packages' annotations against this.
func (pr *Program) PersistPairs() map[string]string {
	pr.index()
	out := map[string]string{}
	for key, p := range pr.persist {
		out[key] = p.mirror
	}
	return out
}

// DerivedFields returns the //sns:derived annotation table: field keys
// ("pkgpath.Type.field") mapped to the rebuild function's name.
func (pr *Program) DerivedFields() map[string]string {
	pr.index()
	return pr.derived
}

// EnumTypes returns the sorted type keys carrying //sns:enum.
func (pr *Program) EnumTypes() []string {
	pr.index()
	var out []string
	for key := range pr.enums {
		out = append(out, key)
	}
	insertionSortStrings(out)
	return out
}

// Warm forces every lazily-built index and cached whole-program analysis
// serially, so a subsequent parallel per-package fan-out (RunParallel)
// only reads shared state. Each computation is sync.Once-guarded, so
// Warm is idempotent and cheap when already warm.
func (pr *Program) Warm() {
	pr.index()
	pr.allocFindings()
	pr.confineFindings()
	pr.goleakFindings()
	pr.statefieldFindings()
}

// OwnedState returns the //sns:owner annotation tables: confined type
// keys ("pkgpath.Name") and confined field keys ("pkgpath.Type.field"),
// each mapped to the owner-goroutine name. Tests pin the real packages'
// annotations against these so a dropped marker fails the suite.
func (pr *Program) OwnedState() (types, fields map[string]string) {
	pr.index()
	return pr.owned, pr.ownedField
}

// GuardedFields returns the //sns:guardedby annotation table: field keys
// ("pkgpath.Type.field") mapped to the guarding mutex field's name.
func (pr *Program) GuardedFields() map[string]string {
	pr.index()
	return pr.guarded
}

// MarkedFunctions returns the sorted FullNames of every function whose
// doc comment carries the given //sns:<marker>.
func (pr *Program) MarkedFunctions(marker string) []string {
	pr.index()
	var out []string
	for name, sf := range pr.funcs {
		if hasMarker(sf.Decl.Doc, marker) {
			out = append(out, name)
		}
	}
	insertionSortStrings(out)
	return out
}

// FuncSource returns the source declaration of fn, if the program holds
// one.
func (pr *Program) FuncSource(fn *types.Func) (*SrcFunc, bool) {
	pr.index()
	sf, ok := pr.funcs[fn.FullName()]
	return sf, ok
}

// HotpathRoots returns every //sns:hotpath-annotated function, in load
// order.
func (pr *Program) HotpathRoots() []*SrcFunc {
	pr.index()
	return pr.hotroots
}

// UnitType returns the defining *types.TypeName and its stable
// "pkgpath.Name" key when t is a //sns:unit-marked defined type.
func (pr *Program) UnitType(t types.Type) (*types.TypeName, string, bool) {
	pr.index()
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", false
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return nil, "", false
	}
	key := tn.Pkg().Path() + "." + tn.Name()
	if !pr.units[key] {
		return nil, "", false
	}
	return tn, key, true
}

// Implementations returns the source declarations of every method in the
// program whose receiver type satisfies iface, for the interface method
// m — the devirtualization step that lets allocfree prove a dynamic call
// site against all of its possible targets. Results are cached per
// interface method.
func (pr *Program) Implementations(iface *types.Interface, m *types.Func) []*SrcFunc {
	pr.index()
	key := m.FullName()
	pr.implMu.Lock()
	defer pr.implMu.Unlock()
	if pr.impls == nil {
		pr.impls = map[string][]*SrcFunc{}
	}
	if out, ok := pr.impls[key]; ok {
		return out
	}
	var out []*SrcFunc
	seen := map[string]bool{}
	for _, pkg := range pr.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if types.IsInterface(T) {
				continue
			}
			var recv types.Type
			switch {
			case types.Implements(T, iface):
				recv = T
			case types.Implements(types.NewPointer(T), iface):
				recv = types.NewPointer(T)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if sf, ok := pr.funcs[fn.FullName()]; ok && !seen[fn.FullName()] {
				seen[fn.FullName()] = true
				out = append(out, sf)
			}
		}
	}
	pr.impls[key] = out
	return out
}

// repoOnce caches the one full-module load shared by every test and
// benchmark in the process, so `go test ./internal/lint` type-checks the
// repository once rather than once per test function.
var (
	repoOnce sync.Once
	repoProg *Program
	repoErr  error
)

// LoadRepoProgram loads and type-checks the whole module ("spreadnshare/...")
// once per process and returns the shared Program. The interprocedural
// passes need the full module in view: analyzing a subset leaves calls
// unresolved at the boundary.
func LoadRepoProgram() (*Program, error) {
	repoOnce.Do(func() {
		pkgs, err := Load("spreadnshare/...")
		if err != nil {
			repoErr = err
			return
		}
		repoProg = NewProgram(pkgs)
	})
	return repoProg, repoErr
}
