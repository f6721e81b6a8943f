package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"spreadnshare/internal/lint"
	"spreadnshare/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.99, 5}, {1, 5}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its argument in place: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// 1000 samples: p99 has exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// relSpread must agree with Python's statistics.quantiles(xs, n=4),
// which the accepting driver uses.
func TestRelSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := relSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0].
	if got, want := relSpread([]float64{1, 2, 4, 8}), (7.0-1.25)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread(1,2,4,8) = %g, want %g", got, want)
	}
}

// endToEnd takes a pass's CPU time as all passes' over all references',
// set-up as the median of each repetition's quotient by its reference
// (both scaled by refNominalS), and the rest as the mean over inputs of
// the median over rounds.
func TestEndToEndReduction(t *testing.T) {
	rep := func(ref, setup, cpu, turn, rss, alloc float64) repResult {
		return repResult{RefCPU: ref, SetupCPU: setup, PassCPU: cpu, AvgTurn: turn, PeakRSSMB: rss, AllocMB: alloc}
	}
	got := endToEnd([][]repResult{
		{rep(1, 1, 10, 100, 7, 50), rep(2, 4, 8, 100, 9, 50), rep(1, 9, 30, 100, 8, 50)},
		{rep(2, 6, 20, 300, 1, 70), rep(1, 4, 25, 300, 3, 70), rep(1, 5, 22, 300, 2, 70)},
	})
	want := map[string]float64{
		"setup_s":     refNominalS * 3.5,       // quotients 1 2 9 3 4 5
		"cpu_s":       refNominalS * 115 / 8.0, // 10+8+30+20+25+22 over 1+2+1+2+1+1
		"avg_turn_s":  200,
		"peak_rss_mb": (8 + 2) / 2., // median of each input
		"alloc_mb":    60,
	}
	if len(got) != len(endToEndMetrics) {
		t.Errorf("endToEnd reported %d metrics, the program lists %d", len(got), len(endToEndMetrics))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("%s = %g, want %g", k, got[k], w)
		}
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := func() []jobOut {
		return []jobOut{
			{Start: 1, Finish: 2, Scale: 1, Nodes: []int{3, 4}},
			{Start: 2, Finish: 5, Scale: 2, Nodes: []int{7}},
		}
	}
	want := digest(base())
	if got := digest(base()); got != want {
		t.Fatalf("digest is not a function of its input: %x vs %x", got, want)
	}
	mutations := map[string]func(j []jobOut){
		"start":      func(j []jobOut) { j[0].Start = math.Nextafter(1, 2) },
		"finish":     func(j []jobOut) { j[1].Finish = 6 },
		"scale":      func(j []jobOut) { j[0].Scale = 2 },
		"node":       func(j []jobOut) { j[0].Nodes[1] = 5 },
		"node order": func(j []jobOut) { j[0].Nodes[0], j[0].Nodes[1] = 4, 3 },
		"node moved": func(j []jobOut) { j[0].Nodes, j[1].Nodes = []int{3}, []int{4, 7} },
		"job order":  func(j []jobOut) { j[0], j[1] = j[1], j[0] },
	}
	for name, mutate := range mutations {
		j := base()
		mutate(j)
		if digest(j) == want {
			t.Errorf("digest did not change when %s changed", name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100] { a [10,40] { b [15,25] }, a [50,70] }, c [0,5]
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 1, Start: 15, End: 25},
		{Name: "a", Parent: 0, Start: 50, End: 70},
		{Name: "c", Parent: -1, Start: 0, End: 5},
	}
	all := totals(spans)
	for name, want := range map[string]int64{"root": 50, "a": 40, "b": 10, "c": 5} {
		if got := all.Self[name]; got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
	if got := all.Calls["a"]; got != 2 {
		t.Errorf("calls(a) = %d, want 2", got)
	}
	if got := durations(spans, "a"); len(got) != 2 || got[0] != 30 || got[1] != 20 {
		t.Errorf("durations(a) = %v, want [30 20]", got)
	}
}

func TestTracerNestingAndMerge(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	root := tr.begin("root")
	child := tr.begin("provisional")
	tr.leaf("leaf", 1, 2)
	tr.endAs(child, "child")
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[1].Name != "child" || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 {
		t.Fatalf("unexpected spans: %+v", tr.spans)
	}
	merged := mergeSpans(tr.spans, tr.spans)
	if len(merged) != 6 || merged[4].Parent != 3 || merged[5].Parent != 4 || merged[3].Parent != -1 {
		t.Errorf("mergeSpans did not rebase parents: %+v", merged)
	}
	// A nil tracer is the untraced form of the same code path.
	var none *tracer
	none.end(none.begin("x"))
	none.leaf("y", none.now(), none.now())
}

func TestProfileBucketing(t *testing.T) {
	const pl = "spreadnshare/internal/placement."
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"fits under walk is walk", []string{pl + "(*Search).fits", pl + "(*Search).findDemandCached.func2", pl + "(*ScoreCache).walk", pl + "(*Search).findDemandCached", pl + "(*Pending).Schedule"}, "cpu.placement_walk_pct"},
		{"a sort under flush is flush", []string{"slices.pdqsortCmpFunc[...]", "slices.SortFunc[...]", pl + "(*ScoreCache).prepare", pl + "(*Search).findDemandCached"}, "cpu.placement_flush_pct"},
		{"allocation wins over its caller", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", pl + "(*Search).takeIdlest"}, "cpu.runtime_alloc_pct"},
		{"gc assist wins over allocation", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", pl + "uniform"}, "cpu.runtime_gc_pct"},
		{"invalidate inside a mutation", []string{pl + "(*ScoreCache).InvalidateSpan", pl + "(*SimState).notifySpan", pl + "(*SimState).ReserveSpan", "spreadnshare/internal/svc.(*Cluster).launch"}, "cpu.placement_invalidate_pct"},
		{"mutation", []string{pl + "(*CoreIndex).Update", pl + "(*SimState).Reserve", "spreadnshare/internal/svc.(*Cluster).launch"}, "cpu.placement_mutate_pct"},
		{"the queue's own sort", []string{"sort.insertionSort", "sort.SliceStable", pl + "(*Pending).Schedule", "spreadnshare/internal/svc.(*Cluster).ScheduleRound"}, "cpu.placement_queue_pct"},
		{"the queue does not claim what it encloses", []string{pl + "(*CoreIndex).Scan", pl + "(*Search).Idle", pl + "(*Search).placeCE", pl + "(*Pending).Schedule"}, "cpu.placement_other_pct"},
		{"an unknown kernel function falls to its package", []string{pl + "(*Search).someFutureName"}, "cpu.placement_other_pct"},
		{"shared helpers count for their caller", []string{"spreadnshare/internal/core.EstimateDemand", pl + "(*Search).placeSNS"}, "cpu.placement_other_pct"},
		{"svc", []string{"spreadnshare/internal/svc.(*Cluster).Submit", "main.(*levelA).submit"}, "cpu.svc_pct"},
		{"api is not svc", []string{"spreadnshare/internal/svc/api.(*Server).handleSubmit", "net/http.HandlerFunc.ServeHTTP"}, "cpu.http_json_pct"},
		{"json under a handler", []string{"strconv.ParseFloat", "encoding/json.(*decodeState).literalStore", "spreadnshare/internal/svc/api.(*Server).handleSubmit"}, "cpu.http_json_pct"},
		{"event heap", []string{"spreadnshare/internal/sim.eventHeap.Less", "container/heap.up", "spreadnshare/internal/sim.(*Queue).At"}, "cpu.sim_trace_pct"},
		{"testbed", []string{"spreadnshare/internal/exec.(*Engine).advance", "spreadnshare/internal/sched.(*Scheduler).Run"}, "cpu.testbed_pct"},
		{"bench", []string{"main.driveReplay.func1"}, "cpu.bench_pct"},
		{"scheduler idle", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "cpu.unmatched_pct"},
		{"empty", nil, "cpu.unmatched_pct"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("%s: bucketOf = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// sink keeps the profiled loop's work live.
var sink float64

// The hand-written decoder must read what runtime/pprof writes: profile
// a busy loop and find this test function on the decoded stacks.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found, total := false, int64(0)
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if fn == "spreadnshare/bench.TestDecodeRealProfile" {
				found = true
			}
		}
	}
	if total == 0 {
		t.Skip("the profiler delivered no samples in 300 ms")
	}
	if !found {
		t.Errorf("no decoded stack names this test among %d samples", total)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

func TestCheckOutcome(t *testing.T) {
	good := []jobOut{
		{Submit: 0, Start: 0, Finish: 10, Nodes: []int{0, 1}, Procs: 32},
		{Submit: 1, Start: 1, Finish: 5, Nodes: []int{1}, Procs: 12},
		// Starts the instant job 0 finishes, on its nodes.
		{Submit: 2, Start: 10, Finish: 20, Nodes: []int{0, 1}, Procs: 56},
	}
	if failed, problems := checkOutcome(good, 2, 28, trace.SNS); failed != 0 {
		t.Fatalf("clean outcome failed %d checks: %v", failed, problems)
	}
	for name, tc := range map[string]struct {
		policy trace.Policy
		mutate func(j []jobOut)
	}{
		"unplaced":               {trace.SNS, func(j []jobOut) { j[1].Nodes = nil }},
		"starts before submit":   {trace.SNS, func(j []jobOut) { j[1].Start = 0.5 }},
		"finishes at start":      {trace.SNS, func(j []jobOut) { j[1].Finish = j[1].Start }},
		"too many cores":         {trace.SNS, func(j []jobOut) { j[1].Procs = 13 }},
		"exclusive node shared":  {trace.CE, func(j []jobOut) {}},
		"node outside cluster":   {trace.SNS, func(j []jobOut) { j[1].Nodes = []int{2} }},
		"node listed twice":      {trace.SNS, func(j []jobOut) { j[0].Nodes = []int{0, 0} }},
		"overlap at a boundary":  {trace.SNS, func(j []jobOut) { j[2].Start = 9 }},
		"negative node id":       {trace.SNS, func(j []jobOut) { j[1].Nodes = []int{-1} }},
		"finish before the rest": {trace.SNS, func(j []jobOut) { j[0].Finish = math.Inf(-1) }},
	} {
		j := append([]jobOut(nil), good...)
		for i := range j {
			j[i].Nodes = append([]int(nil), j[i].Nodes...)
		}
		tc.mutate(j)
		if failed, _ := checkOutcome(j, 2, 28, tc.policy); failed == 0 {
			t.Errorf("%s: checkOutcome found nothing wrong", name)
		}
	}
}

func TestSetIfPresent(t *testing.T) {
	cfg := trace.DefaultSimConfig(8, trace.SNS)
	if !setIfPresent(&cfg, "ScanDepth", 7) || cfg.ScanDepth != 7 {
		t.Errorf("setIfPresent did not set an existing int field: %+v", cfg)
	}
	if setIfPresent(&cfg, "NoSuchKnob", 1) {
		t.Error("setIfPresent claimed to set a field that does not exist")
	}
	if setIfPresent(&cfg, "Alpha", 1) {
		t.Error("setIfPresent claimed to set a non-integer field")
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units, or the driver rejects the run's output.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(cfg.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(cfg.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := cfg.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(cfg.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(cfg.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if got := cfg.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
		if b := cfg.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, b)
		}
	}
	if len(cfg.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(cfg.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if got := cfg.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the program %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at 1/50 scale:
// every output check must pass, the traced replays' Level A and Level B
// digests must match trace.Simulate's, and every metric must be
// reported.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Traced runs write bench/out/ under the working directory.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	}()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 7, 0, traced, 50, null)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (reported %v)", w.name, traced, m.name, got, ok)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must be positive", w.name, m.name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat("bench/out/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no span dump: %v", w.name, err)
				}
			}
		}
	}
}

// The benchmark is a module of its own (the driver's contract wants it
// built by its own build file), so the repository's TestRepoIsClean
// does not see it. This is the same check from this side: every Wide
// lint pass over this package, with the whole module in view, so the
// //sns:goroutine annotations on the bench-owned event loops and the
// join discipline of the load clients are held to the rules the layers
// are. It also type-checks this package against the layers as they are
// now.
func TestBenchIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint needs go list + full type-checking of the module")
	}
	pkgs, err := lint.Load("spreadnshare/...")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	prog := lint.NewProgram(pkgs)
	checked := false
	for _, p := range prog.Packages {
		if p.Path != "spreadnshare/bench" {
			continue
		}
		checked = true
		for _, a := range lint.Analyzers() {
			if !a.Wide {
				continue
			}
			for _, d := range lint.Run(a, prog, p) {
				t.Errorf("%s", d)
			}
		}
	}
	if !checked {
		t.Error("spreadnshare/bench is not among the loaded packages")
	}
}
