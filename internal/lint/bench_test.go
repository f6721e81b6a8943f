package lint

import (
	"testing"
)

// BenchmarkLoadRepo measures the one-time cost the cached loader pays:
// go list + parsing + type-checking the whole module. LoadRepoProgram
// amortizes this across every pass and test in the process, so the CI
// time budget charges it once (see .github/workflows/ci.yml).
func BenchmarkLoadRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(pkgs) == 0 {
			b.Fatal("no packages loaded")
		}
	}
}

// BenchmarkAnalyzeConcurrency measures the warm cost of the three Wide
// concurrency passes (confine, guardedby, goleak) over every loaded
// package — the daemon, the CLIs, and the examples included.
//
// Time budget: the interprocedural work (the confinement fixpoint and
// the leak-join index) runs once per Program and is cached; a warm
// analyze is directive matching plus cached-finding replay and must
// stay well under 100ms on CI hardware so `make lint` remains dominated
// by the one-time load, not the passes.
func BenchmarkAnalyzeConcurrency(b *testing.B) {
	prog, err := LoadRepoProgram()
	if err != nil {
		b.Fatal(err)
	}
	passes := []*Analyzer{Confine, Guardedby, Goleak}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range prog.Packages {
			for _, a := range passes {
				n += len(Run(a, prog, p))
			}
		}
		if n != 0 {
			b.Fatalf("repo is not concurrency-clean: %d findings", n)
		}
	}
}

// BenchmarkAnalyzeState measures the warm cost of the two Wide
// state-integrity passes (statefield, exhaustive) over every loaded
// package. Like the concurrency trio, the interprocedural work (the
// field-flow index) runs once per Program and is cached; a warm
// analyze is directive matching, the per-package exhaustive switch
// walk, and cached-finding replay, and must stay well under 100ms on CI
// hardware.
func BenchmarkAnalyzeState(b *testing.B) {
	prog, err := LoadRepoProgram()
	if err != nil {
		b.Fatal(err)
	}
	passes := []*Analyzer{Statefield, Exhaustive}
	prog.Warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range prog.Packages {
			for _, a := range passes {
				n += len(Run(a, prog, p))
			}
		}
		if n != 0 {
			b.Fatalf("repo is not state-clean: %d findings", n)
		}
	}
}

// BenchmarkWideSerial and BenchmarkWideParallel record the before/after
// of fanning the Wide passes out over internal/par (the cmd/snslint and
// TestRepoIsClean execution shape). The parallel speedup is bounded by
// the pool width — on a single-CPU runner the two are equivalent and
// the comparison just prices RunParallel's result slots and sort.
func BenchmarkWideSerial(b *testing.B) {
	prog, err := LoadRepoProgram()
	if err != nil {
		b.Fatal(err)
	}
	prog.Warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var diags []Diagnostic
		for _, p := range prog.Packages {
			for _, a := range Analyzers() {
				if !a.Wide {
					continue
				}
				diags = append(diags, Run(a, prog, p)...)
			}
		}
		if len(diags) != 0 {
			b.Fatalf("repo is not lint-clean: %d findings", len(diags))
		}
	}
}

func BenchmarkWideParallel(b *testing.B) {
	prog, err := LoadRepoProgram()
	if err != nil {
		b.Fatal(err)
	}
	prog.Warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags := RunParallel(prog, func(p *Package) []Diagnostic {
			var out []Diagnostic
			for _, a := range Analyzers() {
				if !a.Wide {
					continue
				}
				out = append(out, Run(a, prog, p)...)
			}
			return out
		})
		if len(diags) != 0 {
			b.Fatalf("repo is not lint-clean: %d findings", len(diags))
		}
	}
}

// BenchmarkAnalyzeRepo measures the marginal cost of the analysis suite
// itself once the program is loaded and its interprocedural indexes are
// warm — the part that reruns per analyzer, not per process.
func BenchmarkAnalyzeRepo(b *testing.B) {
	prog, err := LoadRepoProgram()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range prog.Packages {
			if !DeterministicPackages[p.Path] {
				continue
			}
			for _, a := range Analyzers() {
				n += len(Run(a, prog, p))
			}
		}
		if n != 0 {
			b.Fatalf("repo is not lint-clean: %d findings", n)
		}
	}
}
