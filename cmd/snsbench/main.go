// Command snsbench regenerates the paper's evaluation figures on the
// simulated substrate and prints them as tables.
//
// Usage:
//
//	snsbench -fig all
//	snsbench -fig fig13
//	snsbench -fig fig14 -seqs 36 -jobs 20
//	snsbench -fig fig20 -trace-jobs 7044
//
// Any figure can be profiled with the standard pprof flags, e.g.
//
//	snsbench -fig fig14 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
//
// The CPU profile covers the whole figure run; the heap profile is a
// post-run live-object snapshot (allocation sites need -sample_index
// alloc_objects, or use the benchmark harness with -benchmem).
//
// Figure ids: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig12 fig13 fig14 fig15
// fig16 fig17 fig19 fig20 (fig18's histogram is part of fig17's output),
// plus the design-choice ablations: abl-mech abl-alpha abl-beta
// abl-grouping (or "ablation" for all four).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"spreadnshare/internal/experiments"
	"spreadnshare/internal/invariant"
	"spreadnshare/internal/par"
	"spreadnshare/internal/report"
)

func main() {
	fig := flag.String("fig", "all", "figure id to regenerate (fig1..fig20, or 'all')")
	seqs := flag.Int("seqs", experiments.SeqCount, "random sequences for fig14-16")
	jobs := flag.Int("jobs", experiments.SeqJobs, "jobs per sequence for fig14-17")
	traceJobs := flag.Int("trace-jobs", 7044, "trace jobs for fig20")
	traceSpan := flag.Float64("trace-span", 1900, "trace span in hours for fig20")
	seed := flag.Int64("seed", 42, "base seed for fig17/fig20")
	format := flag.String("format", "table", "output format: table or csv")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the figure run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile taken after the figure run to this file")
	invariants := flag.Bool("invariants", false, "run the invariant auditor on every scheduling event")
	workersFlag := flag.Int("workers", 0, "worker goroutines for independent simulation cells (0 = GOMAXPROCS); results are identical at any width")
	flag.Parse()

	if *invariants {
		invariant.Enable()
	}
	par.SetWorkers(*workersFlag)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	env, err := experiments.SharedEnv()
	if err != nil {
		fatal(err)
	}

	want := func(id string) bool { return *fig == "all" || strings.EqualFold(*fig, id) }
	ran := 0

	show := func(id, title string, rows [][]string) {
		if *format == "csv" {
			fmt.Printf("# %s: %s\n", id, title)
			if err := report.WriteCSV(os.Stdout, rows); err != nil {
				fatal(err)
			}
			fmt.Println()
		} else {
			fmt.Printf("== %s: %s ==\n%s\n", id, title, experiments.FormatTable(rows))
		}
		ran++
	}

	if want("fig1") {
		r, err := experiments.Fig1Motivating(env)
		if err != nil {
			fatal(err)
		}
		show("fig1", "motivating example (CE 3 nodes vs SNS 2 nodes)", experiments.Fig1Table(r))
	}
	if want("fig2") {
		r, err := experiments.Fig2Scaling(env)
		if err != nil {
			fatal(err)
		}
		show("fig2", "scaling behavior of 16-process runs", experiments.Fig2Table(r))
	}
	if want("fig3") {
		show("fig3", "STREAM bandwidth vs cores", experiments.Fig3Table(experiments.Fig3Stream(env)))
	}
	if want("fig4") {
		r, err := experiments.Fig4Bandwidth(env)
		if err != nil {
			fatal(err)
		}
		show("fig4", "per-node memory bandwidth consumption", experiments.Fig4Table(r))
	}
	if want("fig5") {
		r, err := experiments.Fig5MissRate(env)
		if err != nil {
			fatal(err)
		}
		show("fig5", "LLC miss rate vs scale", experiments.Fig5Table(r))
	}
	if want("fig6") {
		r, err := experiments.Fig6WaySweep(env)
		if err != nil {
			fatal(err)
		}
		show("fig6", "performance vs LLC ways (normalized)", experiments.Fig6Table(r))
	}
	if want("fig7") {
		r, err := experiments.Fig7CommBreakdown(env)
		if err != nil {
			fatal(err)
		}
		show("fig7", "computation/communication breakdown", experiments.Fig7Table(r))
	}
	if want("fig12") {
		r, err := experiments.Fig12CacheSensitivity(env)
		if err != nil {
			fatal(err)
		}
		show("fig12", "cache sensitivity of the 12 programs", experiments.Fig12Table(r))
	}
	if want("fig13") {
		r, err := experiments.Fig13SpeedupScaling(env)
		if err != nil {
			fatal(err)
		}
		show("fig13", "speedup of scaling out (exclusive)", experiments.Fig13Table(r))
	}
	if want("fig14") || want("fig15") || want("fig16") {
		outs, err := experiments.RunSequences(env, *seqs, *jobs)
		if err != nil {
			fatal(err)
		}
		if want("fig14") {
			show("fig14", "throughput of random sequences (normalized to CE)",
				experiments.Fig14Table(experiments.Fig14Throughput(outs)))
		}
		if want("fig15") {
			show("fig15", "SNS relative throughput (sorted)",
				experiments.Fig15Table(experiments.Fig15Relative(outs)))
		}
		if want("fig16") {
			show("fig16", "normalized job run time distribution",
				experiments.Fig16Table(experiments.Fig16RunTime(outs)))
			v := experiments.Fig16Violations(outs)
			fmt.Printf("SNS slowdown-threshold violations: %d/%d executions, avg excess %.1f%%, max %.1f%%\n\n",
				v.Violations, v.Executions, v.AvgExcessPct, v.MaxExcessPct)
		}
	}
	if want("fig17") || want("fig18") {
		r, err := experiments.Fig17LoadBalance(env, *seed)
		if err != nil {
			fatal(err)
		}
		show("fig17", "memory-bandwidth load balance + episode histogram (fig18)",
			experiments.Fig17Table(r))
	}
	if want("fig19") {
		r, err := experiments.Fig19ScalingRatio(env)
		if err != nil {
			fatal(err)
		}
		show("fig19", "impact of workload scaling ratio", experiments.Fig19Table(r))
	}
	if want("fig20") {
		cfg := experiments.DefaultFig20Config()
		cfg.Seed = *seed
		cfg.Jobs = *traceJobs
		cfg.Span = *traceSpan
		r, err := experiments.Fig20TraceSim(env, cfg)
		if err != nil {
			fatal(err)
		}
		show("fig20", "trace-driven simulation of larger clusters", experiments.Fig20Table(r))
	}

	if want("load") {
		r, err := experiments.LoadSweep(env, []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}, 60)
		if err != nil {
			fatal(err)
		}
		show("load", "open-arrival load sweep (Poisson arrivals)", experiments.LoadTable(r))
	}
	if want("sizes") {
		r, err := experiments.ClusterSizeSweep(env, []int{4, 8, 16, 32}, 0.85)
		if err != nil {
			fatal(err)
		}
		show("sizes", "cluster-size sweep at high scaling ratio (fragmentation conjecture)",
			experiments.SizeSweepTable(r))
	}
	if want("qos") {
		r, err := experiments.QoSMix(env, 8, *jobs)
		if err != nil {
			fatal(err)
		}
		show("qos", "heterogeneous slowdown thresholds (strict vs loose)",
			experiments.QoSMixTable(r))
	}
	if want("ablation") || want("abl-mech") {
		r, err := experiments.AblationMechanisms(env, 12, *jobs)
		if err != nil {
			fatal(err)
		}
		show("abl-mech", "mechanism decomposition (spread vs share vs SNS vs MBA)",
			experiments.AblationTable(r))
	}
	if want("ablation") || want("abl-alpha") {
		r, err := experiments.AblationAlpha(env, 8, *jobs, []float64{0.7, 0.8, 0.9, 0.95})
		if err != nil {
			fatal(err)
		}
		show("abl-alpha", "slowdown-threshold sweep", experiments.AblationTable(r))
	}
	if want("ablation") || want("abl-beta") {
		r, err := experiments.AblationBeta(env, 8, *jobs, []float64{0, 1, 2, 4})
		if err != nil {
			fatal(err)
		}
		show("abl-beta", "LLC-occupancy weight sweep", experiments.AblationTable(r))
	}
	if want("ablation") || want("abl-grouping") {
		r, err := experiments.AblationGrouping(env, 8, *jobs)
		if err != nil {
			fatal(err)
		}
		show("abl-grouping", "idle-core grouping on/off", experiments.AblationTable(r))
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "snsbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snsbench:", err)
	os.Exit(1)
}
