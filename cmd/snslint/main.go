// Command snslint is the determinism, concurrency, and state-integrity
// multichecker: it runs the internal/lint analysis suite (mapiter,
// walltime, floateq, unitflow, allocfree, confine, guardedby, goleak,
// statefield, exhaustive) and fails the build on any
// finding. It is the mechanical form of DESIGN.md's determinism,
// dimensional, concurrency, and state-integrity rules and runs as part
// of `make lint` / `make check` / CI.
//
// Usage:
//
//	snslint [-all] [-doc] [-json] [packages]
//
// With no arguments it checks ./... — the deterministic set (see
// internal/lint.DeterministicPackages) gets every pass, every other
// matched package (the daemon, CLI glue, examples) gets the Wide
// concurrency and state-integrity passes, and -all forces every matched
// package through the whole suite. The whole match is type-checked once
// and shared by all passes; the interprocedural passes (unitflow,
// allocfree, the concurrency trio, and the state-integrity pair)
// resolve calls and types across it, so run the full module (the
// default ./...) rather than a subset — analyzing a slice of the module
// leaves boundary calls unresolvable. Packages are analyzed one after
// another and findings are reported in position order. Findings are
// suppressed line by line with a justified directive, e.g.
//
//	//lint:ordered ids are sorted before use
//	//lint:allocfree scratch append; capacity is stable after warm-up
//	//lint:goleak listener goroutine is process-lifetime by design
//
// -json replaces the file:line:col text lines with a JSON array of
// findings on stdout, for machine consumers; the plain format is matched
// by .github/snslint-problem-matcher.json so CI annotates PR diffs.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"spreadnshare/internal/lint"
)

// jsonFinding is the machine-readable form of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	all := flag.Bool("all", false, "analyze every matched package, not just the deterministic set")
	doc := flag.Bool("doc", false, "print each analyzer's rule statement and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	flag.Parse()

	if *doc {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snslint:", err)
		os.Exit(2)
	}
	prog := lint.NewProgram(pkgs)

	checked := 0
	for _, p := range pkgs {
		if lint.DeterministicPackages[p.Path] {
			checked++
		}
	}
	var diags []lint.Diagnostic
	for _, p := range pkgs {
		det := lint.DeterministicPackages[p.Path]
		for _, a := range lint.Analyzers() {
			if !*all && !det && !a.Wide {
				continue
			}
			diags = append(diags, lint.Run(a, prog, p)...)
		}
	}
	lint.SortDiagnostics(diags)
	findings := []jsonFinding{}
	for _, d := range diags {
		if !*jsonOut {
			fmt.Println(d)
		}
		findings = append(findings, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "snslint:", err)
			os.Exit(2)
		}
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "snslint: no deterministic packages matched (use -all to analyze everything)")
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "snslint: %d findings in %d packages\n", len(findings), checked)
		os.Exit(1)
	}
}
