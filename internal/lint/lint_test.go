package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools' analysistest: each
// file under testdata/src/<pkg> marks expected findings with trailing
//
//	// want "substring"
//
// comments; the analyzer must report a diagnostic containing that
// substring on that line, and must report nothing anywhere else.

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// wantAt maps line number -> expected message substrings.
func loadWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range matches {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", filepath.Base(file), i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// runFixture checks one analyzer against one fixture package.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := LoadDir(dir, fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags := Run(a, NewProgram([]*Package{pkg}), pkg)

	wants := loadWants(t, dir)
	matched := map[string]int{} // key -> how many wants satisfied
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		ws := wants[key]
		found := false
		for i, w := range ws {
			if w != "" && strings.Contains(d.Message, w) {
				ws[i] = "" // consume
				matched[key]++
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != "" {
				t.Errorf("missing diagnostic at %s: want message containing %q", key, w)
			}
		}
	}
}

func TestMapiterFixture(t *testing.T)   { runFixture(t, Mapiter, "mapiterfix") }
func TestWalltimeFixture(t *testing.T)  { runFixture(t, Walltime, "walltimefix") }
func TestFloateqFixture(t *testing.T)   { runFixture(t, Floateq, "floateqfix") }
func TestUnitflowFixture(t *testing.T)  { runFixture(t, Unitflow, "unitflowfix") }
func TestAllocfreeFixture(t *testing.T) { runFixture(t, Allocfree, "allocfreefix") }
func TestConfineFixture(t *testing.T)   { runFixture(t, Confine, "confinefix") }
func TestGuardedbyFixture(t *testing.T) { runFixture(t, Guardedby, "guardedbyfix") }
func TestGoleakFixture(t *testing.T)    { runFixture(t, Goleak, "goleakfix") }

func TestStatefieldFixture(t *testing.T) { runFixture(t, Statefield, "statefieldfix") }
func TestExhaustiveFixture(t *testing.T) { runFixture(t, Exhaustive, "exhaustivefix") }

// TestStatefieldMutation is the mutation-style pin from the issue: the
// statefield pass exists to catch PR 8's capacity bug (a dropped copy
// in Snapshot), so deleting the capacity copy from the fixture's encode
// twin must produce exactly one new finding, on that field.
func TestStatefieldMutation(t *testing.T) {
	src := filepath.Join("testdata", "src", "statefieldfix", "statefield.go")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	deleted := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "// mutation:capacity") {
			deleted++
			continue
		}
		kept = append(kept, line)
	}
	if deleted != 1 {
		t.Fatalf("fixture has %d mutation:capacity lines, want 1", deleted)
	}
	dir := filepath.Join(t.TempDir(), "statefieldfix")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "statefield.go"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(dir string) []Diagnostic {
		pkg, err := LoadDir(dir, "statefieldfix")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		return Run(Statefield, NewProgram([]*Package{pkg}), pkg)
	}
	base := run(filepath.Join("testdata", "src", "statefieldfix"))
	mutated := run(dir)
	if len(mutated) != len(base)+1 {
		t.Fatalf("mutant produced %d findings, want baseline %d + 1:\n%v", len(mutated), len(base), mutated)
	}
	fresh := 0
	for _, d := range mutated {
		if strings.Contains(d.Message, "field capacity") &&
			strings.Contains(d.Message, "never copied into it on the snapshot path") {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("deleting the capacity copy yielded %d capacity findings, want exactly 1:\n%v", fresh, mutated)
	}
}

// TestRepoIsClean runs the full suite over the repository — the same
// gate `make lint` enforces, kept inside `go test ./...` so the
// contract cannot drift even where only the test suite runs. The
// deterministic packages get every pass; everything else (the daemon,
// CLI glue, examples) still gets the Wide concurrency and
// state-integrity passes. Packages fan out over RunParallel, exactly as
// cmd/snslint runs them.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint needs go list + full type-checking")
	}
	prog, err := LoadRepoProgram()
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	checked := 0
	for _, p := range prog.Packages {
		if DeterministicPackages[p.Path] {
			checked++
		}
	}
	diags := RunParallel(prog, func(p *Package) []Diagnostic {
		det := DeterministicPackages[p.Path]
		var out []Diagnostic
		for _, a := range Analyzers() {
			if !det && !a.Wide {
				continue
			}
			out = append(out, Run(a, prog, p)...)
		}
		return out
	})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if checked != len(DeterministicPackages) {
		t.Errorf("checked %d deterministic packages, want %d", checked, len(DeterministicPackages))
	}
}

// TestConcurrencyAnnotationCoverage pins the real packages' concurrency
// annotations. The confine/guardedby/goleak passes are annotation-
// driven: deleting a marker silences the checks it anchors, so the
// anchors themselves are part of the contract — dropping //sns:owner
// from svc.Cluster or //sns:guardedby from the daemon's op table fails
// this test, not just quietly stops linting.
func TestConcurrencyAnnotationCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint needs go list + full type-checking")
	}
	prog, err := LoadRepoProgram()
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	ownedTypes, ownedFields := prog.OwnedState()
	wantOwnedTypes := map[string]string{
		"spreadnshare/internal/svc.Cluster": "core",
	}
	for key, owner := range wantOwnedTypes {
		if got := ownedTypes[key]; got != owner {
			t.Errorf("type %s: owner = %q, want %q (//sns:owner missing or changed)", key, got, owner)
		}
	}
	wantOwnedFields := map[string]string{
		"spreadnshare/internal/svc/api.Server.drv":     "scheduler",
		"spreadnshare/internal/svc/api.Server.stopErr": "scheduler",
	}
	for key, owner := range wantOwnedFields {
		if got := ownedFields[key]; got != owner {
			t.Errorf("field %s: owner = %q, want %q (//sns:owner missing or changed)", key, got, owner)
		}
	}
	guarded := prog.GuardedFields()
	for _, fld := range []string{"seq", "ops", "pending"} {
		key := "spreadnshare/internal/svc/api.opTable." + fld
		if got := guarded[key]; got != "mu" {
			t.Errorf("field %s: guardedby = %q, want %q (//sns:guardedby missing or changed)", key, got, "mu")
		}
	}
	wantMarked := map[string][]string{
		"sns:goroutine": {
			"(*spreadnshare/internal/svc/api.Server).run",
			"spreadnshare/internal/trace.Simulate",
		},
		"sns:dispatch": {
			"(*spreadnshare/internal/svc/api.Server).exec",
			"(*spreadnshare/internal/svc/api.Server).view",
		},
		"sns:ownerinit": {
			"spreadnshare/internal/svc.New",
			"spreadnshare/internal/svc.Restore",
			"spreadnshare/internal/svc/api.New",
			"spreadnshare/internal/svc/api.Load",
		},
	}
	for marker, names := range wantMarked {
		have := map[string]bool{}
		for _, n := range prog.MarkedFunctions(marker) {
			have[n] = true
		}
		for _, n := range names {
			if !have[n] {
				t.Errorf("function %s is missing its //%s marker", n, marker)
			}
		}
	}
}

// TestHotpathCoverage pins the allocfree pass to the runtime zero-alloc
// gates: every function those gates exercise (engine recompute, the
// water-filling kernel, the sim queue ops, the placement search, the
// attempt around it and the span mutations) must be reachable from a
// //sns:hotpath root and therefore statically analyzed.
func TestHotpathCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint needs go list + full type-checking")
	}
	prog, err := LoadRepoProgram()
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	covered := map[string]bool{}
	for _, name := range prog.AllocfreeCovered() {
		covered[name] = true
	}
	required := []string{
		"(*spreadnshare/internal/exec.Engine).recompute",
		"(*spreadnshare/internal/exec.Engine).resolveNode",
		"(*spreadnshare/internal/exec.Engine).refreshJob",
		"(*spreadnshare/internal/exec.Engine).advance",
		"spreadnshare/internal/hw.WaterFillInto",
		"(*spreadnshare/internal/sim.Queue).At",
		"(*spreadnshare/internal/sim.Queue).Cancel",
		"(*spreadnshare/internal/sim.Queue).Step",
		"(*spreadnshare/internal/sim.Queue).Run",
		"(*spreadnshare/internal/sim.eventHeap).push",
		"(*spreadnshare/internal/sim.eventHeap).pop",
		"(spreadnshare/internal/sim.eventHeap).init",
		"(spreadnshare/internal/sim.eventHeap).up",
		"(spreadnshare/internal/sim.eventHeap).down",
		"(*spreadnshare/internal/placement.Search).FindDemand",
		"(*spreadnshare/internal/placement.Search).settle",
		"(*spreadnshare/internal/placement.Search).upkeep",
		"(*spreadnshare/internal/placement.Search).provenShort",
		"(*spreadnshare/internal/placement.Search).rememberFailure",
		"(*spreadnshare/internal/placement.Search).score",
		"spreadnshare/internal/placement.scoreOf",
		"(*spreadnshare/internal/placement.Search).fits",
		"(*spreadnshare/internal/placement.Search).placeSNS",
		"(*spreadnshare/internal/placement.Search).placeCS",
		"(*spreadnshare/internal/placement.Search).ascendFree",
		"(*spreadnshare/internal/placement.Search).ladder",
		"(*spreadnshare/internal/placement.ScoreCache).Invalidate",
		"(*spreadnshare/internal/placement.ScoreCache).InvalidateSpan",
		"(*spreadnshare/internal/placement.ScoreCache).flush",
		"(*spreadnshare/internal/placement.ScoreCache).prepare",
		"(*spreadnshare/internal/placement.ScoreCache).fold",
		"(*spreadnshare/internal/placement.ScoreCache).walk",
		"spreadnshare/internal/placement.sortRuns",
		"spreadnshare/internal/placement.idsOf",
		"(*spreadnshare/internal/placement.CoreIndex).UpdateSpan",
		"(*spreadnshare/internal/placement.SimState).ReserveSpan",
		"(*spreadnshare/internal/placement.SimState).ReleaseSpan",
	}
	for _, name := range required {
		if !covered[name] {
			t.Errorf("runtime-gated hot function %s is not covered by the allocfree pass", name)
		}
	}
	if len(covered) < len(required) {
		t.Errorf("allocfree covers %d functions, expected at least %d", len(covered), len(required))
	}
}

// TestStateAnnotationCoverage pins the real packages' state-integrity
// annotations, the same way the concurrency coverage test pins the
// confine/guardedby/goleak anchors: the statefield and exhaustive
// passes are annotation-driven, so deleting a //sns:persist,
// //sns:derived, or //sns:enum marker must fail this test instead of
// silently shrinking what gets linted.
func TestStateAnnotationCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint needs go list + full type-checking")
	}
	prog, err := LoadRepoProgram()
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	pairs := prog.PersistPairs()
	wantPairs := map[string]string{
		"spreadnshare/internal/svc.Cluster":     "snapshot",
		"spreadnshare/internal/svc.Job":         "jobRecord",
		"spreadnshare/internal/svc/api.opTable": "daemonSnapshot",
	}
	for key, mirror := range wantPairs {
		if got := pairs[key]; got != mirror {
			t.Errorf("type %s: persist mirror = %q, want %q (//sns:persist missing or changed)", key, got, mirror)
		}
	}
	derived := prog.DerivedFields()
	wantDerived := map[string]string{
		"spreadnshare/internal/svc.Job.req":             "buildReq",
		"spreadnshare/internal/svc.Cluster.search":      "New",
		"spreadnshare/internal/svc.Cluster.audit":       "New",
		"spreadnshare/internal/svc.Cluster.byName":      "Restore",
		"spreadnshare/internal/svc.Cluster.counts":      "Restore",
		"spreadnshare/internal/svc/api.opTable.seq":     "load",
		"spreadnshare/internal/svc/api.opTable.pending": "load",
	}
	for key, fn := range wantDerived {
		if got := derived[key]; got != fn {
			t.Errorf("field %s: derived = %q, want %q (//sns:derived missing or changed)", key, got, fn)
		}
	}
	enums := map[string]bool{}
	for _, key := range prog.EnumTypes() {
		enums[key] = true
	}
	for _, key := range []string{
		"spreadnshare/internal/svc.JobState",
		"spreadnshare/internal/placement.Policy",
		"spreadnshare/internal/exec.State",
		"spreadnshare/internal/svc/api.OpStatus",
	} {
		if !enums[key] {
			t.Errorf("type %s has no //sns:enum annotation", key)
		}
	}
}

// TestDirectiveJustificationRequired pins the escape hatch's teeth: a
// bare directive is a finding, a justified one suppresses.
func TestDirectiveJustificationRequired(t *testing.T) {
	dir := filepath.Join("testdata", "src", "mapiterfix")
	pkg, err := LoadDir(dir, "mapiterfix")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(Mapiter, NewProgram([]*Package{pkg}), pkg)
	bare := 0
	for _, d := range diags {
		if strings.Contains(d.Message, "needs a justification") {
			bare++
		}
	}
	if bare != 1 {
		t.Errorf("got %d bare-directive findings, want exactly 1", bare)
	}
}
