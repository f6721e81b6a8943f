// Package lint is the determinism linter of the simulator: a small
// go/analysis-shaped static-analysis framework (stdlib only, so it
// builds offline) plus the passes that turn DESIGN.md's determinism and
// dimensional rules into machine-checked law:
//
//   - mapiter: `for range` over a map in a deterministic package leaks
//     runtime-randomized iteration order into simulation state unless
//     the loop body is provably order-insensitive.
//   - walltime: wall-clock readings (time.Now, time.Since, ...) and the
//     global math/rand source make replays unreproducible; all time
//     must come from the sim clock and all randomness from a seeded
//     *rand.Rand.
//   - floateq: ==/!= between computed floats, and float accumulation
//     over map iteration order, silently break the bit-identical golden
//     digests.
//   - unitflow: arithmetic and conversions may not mix distinct
//     //sns:unit-marked physical quantity types (internal/units), and
//     unit values may enter or leave the typed world only through the
//     constructors/accessors of a //sns:unitctor-annotated function.
//   - allocfree: every //sns:hotpath-annotated function must be
//     provably free of allocation-inducing constructs, transitively
//     across the call graph — the static form of the runtime zero-alloc
//     gates in internal/exec/alloc_test.go.
//   - confine: //sns:owner-annotated types and fields (the live cluster
//     core, the daemon's scheduler state) may be reached only from
//     code proven to execute on the named owner goroutine —
//     //sns:goroutine entry points, closures handed to //sns:dispatch
//     functions, and everything the call graph proves onto them.
//   - guardedby: every load and store of a //sns:guardedby-annotated
//     field must happen with the named sibling mutex held (writes need
//     the write lock; RLock admits reads only).
//   - goleak: every `go` statement must carry a statically provable
//     join or termination path — a WaitGroup Done/Wait pair, a
//     done-channel close/receive pair, or a close-terminated worker
//     loop.
//   - statefield: every field of a //sns:persist-annotated struct must
//     be proven copied into and restored from its snapshot mirror, be
//     //sns:derived with the rebuild function reachable from the
//     restore path, or carry a justified suppression — persistence
//     gaps (the PR 8 capacity bug) become vet-time findings.
//   - exhaustive: switches over //sns:enum types must cover every
//     declared constant; a default clause that silently swallows
//     unhandled values is itself a finding.
//
// The last seven passes are interprocedural: they run over a Program (all
// packages type-checked once, with shared cross-package indexes) rather
// than one package at a time. The concurrency and state-integrity passes
// additionally run Wide — over every loaded package, because the daemon
// and CLI glue sit outside the deterministic set but still own
// goroutines, locks, and persisted state.
//
// A finding can be suppressed with a justified directive comment on the
// offending line or the line above:
//
//	//lint:ordered ids are sorted before use
//	//lint:floateq exact sentinel comparison, both sides same computation
//	//lint:walltime operator-facing log timestamp, not simulation state
//	//lint:allocfree scratch append; capacity is stable after warm-up
//	//lint:confine read after <-done: the owner goroutine's exit happens-before
//	//lint:goleak listener goroutine is process-lifetime by design
//	//lint:statefield round-local scratch, rebuilt from zero each ScheduleRound
//	//lint:exhaustive remaining arms unreachable: parser rejects them upstream
//
// The justification text is mandatory: a bare directive is itself a
// diagnostic. cmd/snslint wires the passes into a multichecker run by
// `make lint`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"spreadnshare/internal/par"
)

// An Analyzer describes one static-analysis pass. It mirrors the shape
// of golang.org/x/tools/go/analysis.Analyzer so the passes can migrate
// to the real framework wholesale if the dependency ever lands.
type Analyzer struct {
	// Name identifies the pass and its suppression directive
	// (//lint:<directive> overrides a finding; mapiter uses the
	// directive "ordered").
	Name string
	// Directive is the suppression keyword. Defaults to Name.
	Directive string
	// Doc is the one-paragraph rule statement.
	Doc string
	// Wide marks a pass that applies to every loaded package, not just
	// the deterministic set: the concurrency passes police the daemon
	// (internal/svc/api, cmd/snsd), which legitimately uses wall time
	// and maps but must still honor ownership, lock, and leak rules.
	Wide bool
	// Run reports findings on one type-checked package.
	Run func(*Pass)
}

// directive is one parsed //lint: comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
	used   bool
}

// A Pass holds one analyzer run over one package: the syntax, the type
// information, the surrounding program, and the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the whole loaded program, for the interprocedural passes.
	Prog *Program

	diags      []Diagnostic
	directives map[string]map[int][]*directive // file -> line -> directives
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

var directiveRE = regexp.MustCompile(`^//lint:([a-z]+)(?:\s+(.*))?$`)

// newPass builds a Pass with the package's //lint: directives indexed.
func newPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		directives: map[string]map[int][]*directive{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*directive{}
					p.directives[pos.Filename] = byLine
				}
				// A nested `//` starts a comment-on-the-comment (the
				// fixtures' want markers); it is not a justification.
				reason := m[2]
				if i := strings.Index(reason, "//"); i >= 0 {
					reason = reason[:i]
				}
				byLine[pos.Line] = append(byLine[pos.Line], &directive{
					name:   m[1],
					reason: strings.TrimSpace(reason),
					pos:    c.Pos(),
				})
			}
		}
	}
	return p
}

// Reportf records a finding at pos unless a justified suppression
// directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Suppressed(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether the analyzer's directive appears on pos's
// line or the line directly above it, and marks the directive used.
// Directives with an empty justification do not suppress anything (and
// are reported separately by Run).
func (p *Pass) Suppressed(pos token.Pos) bool {
	name := p.Analyzer.Directive
	if name == "" {
		name = p.Analyzer.Name
	}
	at := p.Fset.Position(pos)
	byLine := p.directives[at.Filename]
	for _, line := range []int{at.Line, at.Line - 1} {
		for _, d := range byLine[line] {
			if d.name == name && d.reason != "" {
				d.used = true
				return true
			}
		}
	}
	return false
}

// Run executes one analyzer over one package of prog and returns its
// findings sorted by position. Bare (unjustified) directives matching
// the analyzer are reported as findings too, so the escape hatch cannot
// rot into a blanket mute. The interprocedural passes consult prog but
// still report per package, so directive suppression works uniformly.
func Run(a *Analyzer, prog *Program, pkg *Package) []Diagnostic {
	p := newPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	p.Prog = prog
	a.Run(p)
	dirName := a.Directive
	if dirName == "" {
		dirName = a.Name
	}
	for _, byLine := range p.directives {
		for _, ds := range byLine {
			for _, d := range ds {
				if d.name == dirName && d.reason == "" {
					p.diags = append(p.diags, Diagnostic{
						Pos:      pkg.Fset.Position(d.pos),
						Analyzer: a.Name,
						Message:  fmt.Sprintf("//lint:%s directive needs a justification", dirName),
					})
				}
			}
		}
	}
	sort.Slice(p.diags, func(i, k int) bool {
		a, b := p.diags[i].Pos, p.diags[k].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// Analyzers returns the full suite in report order: the three
// determinism passes, the two interprocedural semantic passes, the
// three concurrency passes, then the two state-integrity passes (the
// last five are Wide: they run over every loaded package, not just the
// deterministic set).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Mapiter, Walltime, Floateq, Unitflow, Allocfree,
		Confine, Guardedby, Goleak,
		Statefield, Exhaustive,
	}
}

// RunParallel runs the given per-package analysis over every package of
// prog through par.ForEach and returns the merged findings in a fixed
// order — sorted by file, line, column, then analyzer name — so the
// output is byte-identical at any worker width. The program-wide caches
// are warmed on the calling goroutine first; after that the per-package
// work only reads immutable type information and replays cached
// findings, so the fan-out is race-free. Each package writes only its
// own pre-sized result slot (the ForEach contract), and ForEach runs
// inline at width 1.
func RunParallel(prog *Program, analyze func(*Package) []Diagnostic) []Diagnostic {
	prog.Warm()
	results := make([][]Diagnostic, len(prog.Packages))
	_ = par.ForEach(len(prog.Packages), func(i int) error {
		results[i] = analyze(prog.Packages[i])
		return nil
	})
	var out []Diagnostic
	for _, r := range results {
		out = append(out, r...)
	}
	sort.SliceStable(out, func(i, k int) bool {
		a, b := out[i].Pos, out[k].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[k].Analyzer
	})
	return out
}

// DeterministicPackages is the set of import paths whose runtime code
// the determinism contract covers: everything on the path from a
// workload description to a golden digest. Test files and the packages
// outside this set (report rendering, CLI glue, the profiler's offline
// fitting) may use maps and wall time freely.
var DeterministicPackages = map[string]bool{
	"spreadnshare/internal/placement":   true,
	"spreadnshare/internal/sched":       true,
	"spreadnshare/internal/trace":       true,
	"spreadnshare/internal/exec":        true,
	"spreadnshare/internal/sim":         true,
	"spreadnshare/internal/cluster":     true,
	"spreadnshare/internal/hw":          true,
	"spreadnshare/internal/pmu":         true,
	"spreadnshare/internal/experiments": true,
	"spreadnshare/internal/core":        true,
	"spreadnshare/internal/units":       true,
	"spreadnshare/internal/par":         true,
	"spreadnshare/internal/svc":         true,
}

// isFloat reports whether t is a floating-point type (after unaliasing).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInteger reports whether t is an integer type.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
