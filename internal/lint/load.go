package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // gc export data file (-export)
	Standard   bool   // part of the standard library
	DepOnly    bool   // only a dependency of the patterns (-deps)
}

// Load resolves the patterns with one `go list -deps -export` and
// type-checks every matched package from source, in the dependency
// order go list emits, so each import of a package the load checks is
// that package's own *types.Package. The standard library comes from
// the gc export data go list reported; a module package that is only a
// dependency is checked from source too but not returned, so no type
// of a matched package can reach another through a second copy.
// Loading works offline with no dependency on golang.org/x/tools.
func Load(patterns ...string) ([]*Package, error) {
	return load("", patterns...)
}

// load is Load with go list run in dir ("" is the working directory).
func load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-deps", "-export"}, patterns...))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newUniverse(fset, listed)
	conf := types.Config{Importer: imp}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		files, err := parseFiles(fset, lp)
		if err != nil {
			return nil, err
		}
		p, err := check(fset, &conf, lp, files)
		if err != nil {
			return nil, err
		}
		imp.checked[lp.ImportPath] = p.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// LoadDir type-checks a single directory as one package — the fixture
// path used by the analysistest-style tests. Its imports come from the
// gc export data `go list -export` reports for them, so only stdlib
// imports are resolvable from a fixture.
func LoadDir(dir, importPath string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	lp := listedPackage{ImportPath: importPath, Dir: dir}
	for _, m := range matches {
		lp.GoFiles = append(lp.GoFiles, filepath.Base(m))
	}
	if len(lp.GoFiles) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	files, err := parseFiles(fset, lp)
	if err != nil {
		return nil, err
	}
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			imports = append(imports, path)
		}
	}
	var listed []listedPackage
	if len(imports) > 0 {
		if listed, err = goList("", append([]string{"-export"}, imports...)); err != nil {
			return nil, err
		}
	}
	conf := types.Config{Importer: newUniverse(fset, listed)}
	return check(fset, &conf, lp, files)
}

// goList runs `go list -json` with args in dir and decodes what it
// prints.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly"}, args...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", args, err, errb.Bytes())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// universe is the one importer a load type-checks against: a package
// the load has already checked from source comes from checked, every
// other import from the gc export data go list reported for it.
type universe struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func newUniverse(fset *token.FileSet, listed []listedPackage) *universe {
	export := map[string]string{}
	for _, lp := range listed {
		export[lp.ImportPath] = lp.Export
	}
	return &universe{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if export[path] == "" {
				return nil, fmt.Errorf("lint: no export data for %s", path)
			}
			return os.Open(export[path])
		}),
	}
}

func (u *universe) Import(path string) (*types.Package, error) {
	if p, ok := u.checked[path]; ok {
		return p, nil
	}
	return u.gc.Import(path)
}

// parseFiles parses one package's files, comments included.
func parseFiles(fset *token.FileSet, lp listedPackage) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check fully type-checks one parsed package.
func check(fset *token.FileSet, conf *types.Config, lp listedPackage, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
