// Command tracegen synthesizes Trinity-like job traces (Section 6.4) and
// writes them as CSV, optionally replaying them through the large-cluster
// simulator.
//
// Usage:
//
//	tracegen -jobs 7044 -span 1900 -out trace.csv
//	tracegen -jobs 2000 -ratio 0.9 -replay 4096 -policy SNS
package main

import (
	"flag"
	"fmt"
	"os"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/invariant"
	"spreadnshare/internal/par"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/trace"
)

var (
	scalingGroup = []string{"MG", "CG", "LU", "TS", "BW"}
	otherGroup   = []string{"EP", "WC", "NW", "HC", "BFS"}
)

func main() {
	jobs := flag.Int("jobs", 7044, "number of parallel jobs")
	span := flag.Float64("span", 1900, "trace span in hours")
	maxNodes := flag.Int("max-nodes", 4096, "largest job size in nodes")
	seed := flag.Int64("seed", 42, "generator seed")
	ratio := flag.Float64("ratio", 0.9, "scaling-program sampling bias")
	out := flag.String("out", "", "write trace CSV here")
	replay := flag.Int("replay", 0, "replay on a cluster of this many nodes")
	policyFlag := flag.String("policy", "SNS", "replay policy: CE, CS, SNS, TwoSlot, or 'all' for a parallel four-policy replay")
	stats := flag.Bool("stats", false, "print trace shape statistics")
	swf := flag.String("swf", "", "import a Standard Workload Format trace instead of synthesizing")
	swfProcs := flag.Int("swf-procs-per-node", 16, "processors per node for SWF conversion")
	invariants := flag.Bool("invariants", false, "run the invariant auditor on every scheduling event of the replay")
	workersFlag := flag.Int("workers", 0, "worker goroutines for multi-policy replay (0 = GOMAXPROCS); results are identical at any width")
	flag.Parse()

	if *invariants {
		invariant.Enable()
	}
	par.SetWorkers(*workersFlag)

	var jj []trace.Job
	if *swf != "" {
		f, err := os.Open(*swf)
		if err != nil {
			fatal(err)
		}
		jj, err = trace.ParseSWF(f, *swfProcs)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("imported %d jobs from %s\n", len(jj), *swf)
	} else {
		jj = trace.Synthesize(*seed, trace.GenConfig{
			Jobs: *jobs, SpanHours: *span, MaxNodes: *maxNodes,
		})
	}
	trace.MapPrograms(*seed, jj, scalingGroup, otherGroup, *ratio)
	fmt.Printf("trace ready: %d jobs (ratio %.2f)\n", len(jj), *ratio)
	if *stats {
		fmt.Print(trace.Summarize(jj))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := trace.Write(f, jj); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
	}

	if *replay > 0 {
		policies := []placement.Policy{placement.CE, placement.CS, placement.SNS, placement.TwoSlot}
		if *policyFlag != "all" {
			policy, err := placement.ParsePolicy(*policyFlag)
			if err != nil {
				fatal(err)
			}
			policies = []placement.Policy{policy}
		}
		spec := hw.DefaultClusterSpec()
		cat, err := app.NewCatalog(spec.Node)
		if err != nil {
			fatal(err)
		}
		db := profiler.NewDB()
		k := profiler.New(spec)
		all := append(append([]string(nil), scalingGroup...), otherGroup...)
		if err := k.ProfileAll(cat, all, 16, db); err != nil {
			fatal(err)
		}
		cfgs := make([]trace.SimConfig, len(policies))
		for i, p := range policies {
			cfgs[i] = trace.DefaultSimConfig(*replay, p)
		}
		results, err := trace.SimulateAll(jj, db, spec.Node, cfgs)
		if err != nil {
			fatal(err)
		}
		for i, res := range results {
			fmt.Printf("%s on %d nodes: avg wait %.0f s, avg run %.0f s, avg turnaround %.0f s, makespan %.1f h\n",
				policies[i], *replay, res.AvgWait, res.AvgRun, res.AvgTurn, res.Makespan/3600)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
