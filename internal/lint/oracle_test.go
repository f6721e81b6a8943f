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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// sourceLoad is the loader Load replaced, kept as the oracle the new one
// is held to: every import, the standard library included, is
// type-checked again from source by go/importer's "source" importer, so
// a module package exists once as a target and once more as each
// importer's dependency. The body is the old Load's, with go list run
// in dir.
func sourceLoad(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, errb.Bytes())
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

	fset := token.NewFileSet()
	// One shared source importer: each dependency is type-checked once
	// (signatures only) and cached across all target packages.
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	var pkgs []*Package
	for _, lp := range listed {
		p, err := sourceCheck(fset, &conf, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// sourceCheck is the old loader's parse-and-check of one package.
func sourceCheck(fset *token.FileSet, conf *types.Config, lp listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
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

// A plant is one fault an analyzer exists to catch, written into a copy
// of a real package. edits are (old, new) pairs applied to file, each
// old occurring there exactly once; the finding must fall on the line of
// the planted file holding "// planted", or on the line of atFile
// holding at when the analyzer reports at a declaration elsewhere.
type plant struct {
	analyzer  string
	file      string
	edits     []string
	atFile    string
	at        string
	rationale string
}

var plants = []plant{{
	analyzer:  "mapiter",
	file:      "internal/placement/policy.go",
	rationale: "a lookup whose answer depends on map order",
	edits: []string{"func ParsePolicy(s string) (Policy, error) {\n",
		"func ParsePolicy(s string) (Policy, error) {\n" +
			"\tfor name, p := range map[string]Policy{\"CE\": CE, \"CS\": CS, \"SNS\": SNS, \"TWOSLOT\": TwoSlot} { // planted\n" +
			"\t\tif strings.EqualFold(name, s) {\n\t\t\treturn p, nil\n\t\t}\n\t}\n"},
}, {
	analyzer:  "walltime",
	file:      "internal/svc/driver.go",
	rationale: "the admission loop reads the wall clock",
	edits: []string{
		"import \"spreadnshare/internal/sim\"\n",
		"import (\n\t\"time\"\n\n\t\"spreadnshare/internal/sim\"\n)\n",
		"func (d *Driver) Round(now float64) {\n",
		"func (d *Driver) Round(now float64) {\n\tnow = float64(time.Now().Unix()) // planted\n"},
}, {
	analyzer:  "floateq",
	file:      "internal/placement/failed.go",
	rationale: "a remembered failure matches only an identical bandwidth",
	edits: []string{"q.BW >= d.BW && q.MemGB >= d.MemGB && q.IOBW >= d.IOBW\n",
		"q.BW == d.BW && q.MemGB >= d.MemGB && q.IOBW >= d.IOBW // planted\n"},
}, {
	analyzer:  "unitflow",
	file:      "internal/hw/bandwidth.go",
	rationale: "bandwidth divided by a core count converted to bandwidth",
	edits: []string{"return units.GBpsOf(s.StreamBandwidth(k).Float64() / k.Float64())\n",
		"return s.StreamBandwidth(k) / units.GBps(k) // planted\n"},
}, {
	analyzer:  "allocfree",
	file:      "internal/placement/search.go",
	rationale: "an allocation on the NoGrouping path, which no runtime gate drives",
	edits: []string{"\t\tif !s.NoGrouping && len(all)-start >= n {\n",
		"\t\tif s.NoGrouping {\n\t\t\t_ = make([]int32, n) // planted\n\t\t}\n" +
			"\t\tif !s.NoGrouping && len(all)-start >= n {\n"},
}, {
	analyzer:  "confine",
	file:      "internal/svc/api/server.go",
	rationale: "a handler reads the core off the scheduler goroutine",
	edits: []string{"\tvar stats svc.Stats\n\tif err := s.view(func(now float64) { stats = s.cfg.Core.Stats() }); err != nil {\n",
		"\tstats := s.cfg.Core.Stats() // planted\n\tif err := s.view(func(now float64) {}); err != nil {\n"},
}, {
	analyzer:  "guardedby",
	file:      "internal/svc/api/ops.go",
	rationale: "the op table's lock dropped",
	edits: []string{"\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n\tt.seq++\n",
		"\tt.seq++ // planted\n"},
}, {
	analyzer:  "goleak",
	file:      "internal/par/par.go",
	rationale: "a worker nobody waits for",
	edits: []string{"\t\tgo func() {\n\t\t\tdefer wg.Done()\n",
		"\t\tgo func() { // planted\n"},
}, {
	analyzer:  "statefield",
	file:      "internal/svc/snapshot.go",
	rationale: "Restore no longer rebuilds the //sns:derived kernel request",
	edits:     []string{"\t\tj.req = c.buildReq(&j.Spec)\n", ""},
	atFile:    "internal/svc/svc.go",
	at:        "\treq placement.Request",
}, {
	analyzer:  "exhaustive",
	file:      "internal/svc/cluster.go",
	rationale: "a lifecycle state left to the default arm",
	edits: []string{"\tcase Done, Cancelled:\n",
		"\tcase Done:\n",
		"\tdefault:\n\t\treturn fmt.Errorf(\"svc: cancel: job %d in invalid state %d\"",
		"\tdefault: // planted\n\t\treturn fmt.Errorf(\"svc: cancel: job %d in invalid state %d\""},
}}

// oracleRoots are the packages whose module closure the oracle loads.
// The closure holds every plant's package; loading the whole module
// would double the source-importer half's cost.
var oracleRoots = []string{"spreadnshare/internal/svc/api"}

// TestLoaderOracle copies the module, plants one fault per analyzer in
// real packages, and lints the closure of oracleRoots with Load and with
// sourceLoad, the source-importer loader it replaced: both must report
// the same findings, each plant at least one at its line, and nothing
// outside the plants.
func TestLoaderOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("the oracle type-checks the standard library from source")
	}
	dir := copyModule(t)
	covered := map[string]bool{}
	for _, p := range plants {
		covered[p.analyzer] = true
		path := filepath.Join(dir, p.file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		for i := 0; i < len(p.edits); i += 2 {
			if n := strings.Count(src, p.edits[i]); n != 1 {
				t.Fatalf("%s plant: %q occurs %d times in %s, want 1", p.analyzer, p.edits[i], n, p.file)
			}
			src = strings.Replace(src, p.edits[i], p.edits[i+1], 1)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("no plant for analyzer %s", a.Name)
		}
	}

	listed, err := goList(dir, append([]string{"-deps"}, oracleRoots...))
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for _, lp := range listed {
		if !lp.Standard {
			patterns = append(patterns, lp.ImportPath)
		}
	}
	lintAll := func(load func(string, ...string) ([]*Package, error)) []string {
		pkgs, err := load(dir, patterns...)
		if err != nil {
			t.Fatal(err)
		}
		prog := NewProgram(pkgs)
		var diags []Diagnostic
		for _, p := range pkgs {
			for _, a := range Analyzers() {
				if DeterministicPackages[p.Path] || a.Wide {
					diags = append(diags, Run(a, prog, p)...)
				}
			}
		}
		SortDiagnostics(diags)
		out := make([]string, len(diags))
		for i, d := range diags {
			out[i] = d.String()
		}
		return out
	}
	got := lintAll(load)
	want := lintAll(sourceLoad)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Load and the source-importer loader disagree:\nLoad:\n%s\nsource:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	for _, p := range plants {
		file, marker := p.file, "// planted"
		if p.atFile != "" {
			file, marker = p.atFile, p.at
		}
		prefix := fmt.Sprintf("%s:%d:", filepath.Join(dir, file), lineOf(t, filepath.Join(dir, file), marker))
		reported := false
		for _, d := range got {
			reported = reported || strings.HasPrefix(d, prefix) && strings.Contains(d, "["+p.analyzer+"]")
		}
		if !reported {
			t.Errorf("%s plant (%s) not reported at %s", p.analyzer, p.rationale, prefix)
		}
	}
	for _, d := range got {
		explained := false
		for _, p := range plants {
			for _, file := range []string{p.file, p.atFile} {
				explained = explained || file != "" &&
					strings.HasPrefix(d, filepath.Join(dir, file)+":") && strings.Contains(d, "["+p.analyzer+"]")
			}
		}
		if !explained {
			t.Errorf("finding no plant explains: %s", d)
		}
	}
}

// lineOf returns the 1-based line of path holding marker.
func lineOf(t *testing.T, path, marker string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, marker) {
			return i + 1
		}
	}
	t.Fatalf("%s holds no line with %q", path, marker)
	return 0
}

// copyModule copies go.mod and the Go files of every package of the
// module into a temporary directory and returns it. Nested modules,
// testdata and hidden directories are left behind.
func copyModule(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && rel != "." {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestOneUniverse: whatever a loaded package reaches through its
// imports, a package of the same path as a loaded one is that loaded
// package's own *types.Package — for the whole module, and for a load
// whose targets meet only through a package that is a dependency alone
// (api imports svc, which imports placement). The source-importer
// loader fails it: it checks each module package again as its
// importers' dependency.
func TestOneUniverse(t *testing.T) {
	prog, err := LoadRepoProgram()
	if err != nil {
		t.Fatal(err)
	}
	partial, err := Load("spreadnshare/internal/placement", "spreadnshare/internal/svc/api")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkgs := range [][]*Package{prog.Packages, partial} {
		loaded := map[string]*types.Package{}
		for _, p := range pkgs {
			loaded[p.Path] = p.Types
		}
		seen := map[*types.Package]bool{}
		var visit func(from string, tp *types.Package)
		visit = func(from string, tp *types.Package) {
			if seen[tp] {
				return
			}
			seen[tp] = true
			if want, ok := loaded[tp.Path()]; ok && want != tp {
				t.Errorf("%s reaches a second copy of %s", from, tp.Path())
			}
			for _, imp := range tp.Imports() {
				visit(from, imp)
			}
		}
		for _, p := range pkgs {
			visit(p.Path, p.Types)
		}
	}
}
