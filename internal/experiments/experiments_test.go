package experiments

import (
	"testing"

	"spreadnshare/internal/invariant"
	"spreadnshare/internal/sched"
)

func env(t *testing.T) *Env {
	t.Helper()
	e, err := SharedEnv()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFig1Shape(t *testing.T) {
	r, err := Fig1Motivating(env(t))
	if err != nil {
		t.Fatal(err)
	}
	// The headline claims of Figure 1, as shapes: fewer node-seconds,
	// MG and TS faster, HC only slightly slower, makespan close.
	if r.NodeSecsReductionPct < 15 {
		t.Errorf("node-seconds reduction %.1f%%, want substantial (paper: 34.6%%)", r.NodeSecsReductionPct)
	}
	if r.MGSpeedupPct <= 0 {
		t.Errorf("MG speedup %.1f%%, want positive (paper: 9.0%%)", r.MGSpeedupPct)
	}
	if r.TSSpeedupPct <= 0 {
		t.Errorf("TS speedup %.1f%%, want positive (paper: 7.2%%)", r.TSSpeedupPct)
	}
	if r.HCSlowdownPct > 10 {
		t.Errorf("HC slowdown %.1f%%, want mild (paper: 3.8%%)", r.HCSlowdownPct)
	}
	if r.SNSMakespan > r.CEMakespan*1.10 {
		t.Errorf("SNS makespan %.1f more than 10%% over CE %.1f (paper: +2.6%%)",
			r.SNSMakespan, r.CEMakespan)
	}
	if len(Fig1Table(r)) != 10 {
		t.Error("fig1 table shape wrong")
	}
}

func TestFig2Shape(t *testing.T) {
	rows, err := Fig2Scaling(env(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Program] = r
		if r.Speedups[0] != 1 {
			t.Errorf("%s 1N16C speedup %.3f, want 1 (self-normalized)", r.Program, r.Speedups[0])
		}
	}
	if byName["MG"].Speedups[1] < 1.2 {
		t.Errorf("MG 2N8C speedup %.3f, want clearly above 1", byName["MG"].Speedups[1])
	}
	if byName["BFS"].Speedups[1] >= 1 {
		t.Errorf("BFS 2N8C speedup %.3f, want below 1", byName["BFS"].Speedups[1])
	}
	for i := 1; i < 4; i++ {
		if s := byName["EP"].Speedups[i]; s < 0.9 || s > 1.1 {
			t.Errorf("EP speedup %.3f at scale %d, want near 1", s, i)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rows := Fig3Stream(env(t))
	if len(rows) != 28 {
		t.Fatalf("%d rows, want 28", len(rows))
	}
	if rows[0].OverallGB != 18.80 {
		t.Errorf("1-core bandwidth %.2f, want 18.80", rows[0].OverallGB)
	}
	if rows[27].OverallGB != 118.26 {
		t.Errorf("28-core bandwidth %.2f, want 118.26", rows[27].OverallGB)
	}
	if rows[27].PerCoreGB >= rows[0].PerCoreGB*0.35 {
		t.Errorf("per-core bandwidth at 28 cores %.2f, want far below single-core %.2f",
			rows[27].PerCoreGB, rows[0].PerCoreGB)
	}
}

func TestFig4Shape(t *testing.T) {
	rows, err := Fig4Bandwidth(env(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// Paper's Figure 4 anchors: MG ~112 GB/s, CG ~42.9, EP ~0.09.
	if mg := byName["MG"].PerNodeGB[0]; mg < 100 || mg > 119 {
		t.Errorf("MG 1-node bandwidth %.1f, want ~112", mg)
	}
	if cg := byName["CG"].PerNodeGB[0]; cg < 30 || cg > 55 {
		t.Errorf("CG 1-node bandwidth %.1f, want ~42.9", cg)
	}
	if ep := byName["EP"].PerNodeGB[0]; ep > 1 {
		t.Errorf("EP 1-node bandwidth %.2f, want ~0.09", ep)
	}
	// MG spread over 2 nodes: per-node drops but program total rises
	// (paper: 67.6 per node, 135.2 total vs 112).
	mg := byName["MG"]
	if mg.PerNodeGB[1] >= mg.PerNodeGB[0] {
		t.Error("MG per-node bandwidth did not drop when spread over 2 nodes")
	}
	if 2*mg.PerNodeGB[1] <= mg.PerNodeGB[0] {
		t.Error("MG total bandwidth did not rise when spread over 2 nodes")
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5MissRate(env(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig5Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// CG's miss rate drops with scale (more cache per process); BFS's
	// rises (communication-related accesses); EP's is tiny throughout.
	if cg := byName["CG"]; cg.MissPct[3] >= cg.MissPct[0] {
		t.Errorf("CG miss rate did not drop when scaled out: %v", cg.MissPct)
	}
	if bfs := byName["BFS"]; bfs.MissPct[1] <= bfs.MissPct[0] {
		t.Errorf("BFS miss rate did not rise when scaled out: %v", bfs.MissPct)
	}
	if ep := byName["EP"]; ep.MissPct[0] > 5 {
		t.Errorf("EP miss rate %.1f, want tiny", ep.MissPct[0])
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6WaySweep(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Norm) != 20 {
			t.Fatalf("%s has %d way points, want 20", r.Program, len(r.Norm))
		}
		if r.Norm[19] < 0.999 || r.Norm[19] > 1.001 {
			t.Errorf("%s full-way point %.3f, want 1", r.Program, r.Norm[19])
		}
		for w := 1; w < 20; w++ {
			if r.Norm[w] < r.Norm[w-1]-1e-9 {
				t.Errorf("%s performance decreasing with more ways at %d", r.Program, w+1)
			}
		}
	}
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// MG reaches 90% with very few ways; CG needs ~10; EP insensitive;
	// BFS needs nearly all (paper's saturation points 3/10/-/18).
	least := func(name string) int {
		r := byName[name]
		for w := 1; w <= 20; w++ {
			if r.Norm[w-1] >= 0.9 {
				return w
			}
		}
		return 20
	}
	if l := least("MG"); l > 4 {
		t.Errorf("MG 90%% saturation at %d ways, want <= 4", l)
	}
	if l := least("CG"); l < 6 || l > 14 {
		t.Errorf("CG 90%% saturation at %d ways, want ~10", l)
	}
	if l := least("EP"); l > 2 {
		t.Errorf("EP 90%% saturation at %d ways, want insensitive", l)
	}
	if l := least("BFS"); l < 14 {
		t.Errorf("BFS 90%% saturation at %d ways, want >= 14", l)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7CommBreakdown(env(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Comm[0] != 0 {
			t.Errorf("%s has communication on one node", r.Program)
		}
		if r.Program == "BFS" || r.Program == "CG" {
			// BFS is comm-dominated by design; our CG model uses
			// communication growth as the mechanism behind its
			// 2x performance peak, so its comm share at 8x
			// exceeds the paper's plotted fraction.
			continue
		}
		// NPB programs: communication under 10% of total run time.
		for i := 1; i < 4; i++ {
			if frac := r.Comm[i] / (r.Comm[i] + r.Compute[i]); frac > 0.12 {
				t.Errorf("%s comm fraction %.2f at scale %d, want < 0.12", r.Program, frac, i)
			}
		}
	}
	// CG's communication share shrinks... no: it grows with footprint,
	// but at its ideal 2x scale it stays modest.
	for _, r := range rows {
		if r.Program == "CG" {
			if frac := r.Comm[1] / (r.Comm[1] + r.Compute[1]); frac > 0.05 {
				t.Errorf("CG comm fraction %.2f at 2x, want small", frac)
			}
		}
	}
}

func TestFig12Shape(t *testing.T) {
	rows, err := Fig12CacheSensitivity(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	byName := map[string]Fig12Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// Cache-insensitive programs happy with the 2-way minimum,
	// cache-hungry ones demanding most of the LLC (paper Figure 12).
	for _, name := range []string{"EP", "HC"} {
		if byName[name].LeastWays > 3 {
			t.Errorf("%s least ways %d, want <= 3", name, byName[name].LeastWays)
		}
	}
	for _, name := range []string{"NW", "BFS"} {
		if byName[name].LeastWays < 14 {
			t.Errorf("%s least ways %d, want >= 14", name, byName[name].LeastWays)
		}
	}
	// Bandwidth-bound programs drain the node near its peak.
	for _, name := range []string{"MG", "LU", "BW"} {
		if byName[name].BandwidthGB < 90 {
			t.Errorf("%s bandwidth %.1f, want near node peak", name, byName[name].BandwidthGB)
		}
		if byName[name].Class != "scaling" {
			t.Errorf("%s class %s, want scaling", name, byName[name].Class)
		}
	}
	if byName["BFS"].Class != "compact" {
		t.Errorf("BFS class %s, want compact", byName["BFS"].Class)
	}
}

func TestFig13Shape(t *testing.T) {
	rows, err := Fig13SpeedupScaling(env(t))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig13Row{}
	for _, r := range rows {
		byName[r.Program] = r
	}
	// Five scaling programs with visible speedup (paper: MG, CG, LU,
	// TS, BW).
	for _, name := range []string{"MG", "LU", "BW", "TS"} {
		best := byName[name].X2
		if byName[name].X4 > best {
			best = byName[name].X4
		}
		if byName[name].X8 > best {
			best = byName[name].X8
		}
		if best < 1.15 {
			t.Errorf("%s best spread speedup %.3f, want > 1.15", name, best)
		}
	}
	cg := byName["CG"]
	if cg.X2 < 1.05 {
		t.Errorf("CG 2x speedup %.3f, want > 1.05 (paper: 1.13)", cg.X2)
	}
	if !(cg.X2 > cg.X4 && cg.X4 > cg.X8) {
		t.Errorf("CG not peaked at 2x: %.3f %.3f %.3f", cg.X2, cg.X4, cg.X8)
	}
	if bfs := byName["BFS"]; bfs.X2 >= 1 || bfs.X8 >= bfs.X2 {
		t.Errorf("BFS not compact: %.3f %.3f %.3f", bfs.X2, bfs.X4, bfs.X8)
	}
}

func TestSequenceExperimentsShape(t *testing.T) {
	// A reduced version of the Figure 14-16 study: 8 sequences.
	outs, err := RunSequences(env(t), 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 8 {
		t.Fatalf("%d outcomes, want 8", len(outs))
	}
	rows14 := Fig14Throughput(outs)
	cs, sns := Fig14Summary(rows14)
	if sns <= 1.0 {
		t.Errorf("SNS average throughput gain %.3f, want above CE (paper: +19.8%%)", sns)
	}
	if cs <= 0.95 {
		t.Errorf("CS average throughput %.3f, want at least near CE (paper: +13.7%%)", cs)
	}
	if sns <= cs {
		t.Errorf("SNS average %.3f not above CS %.3f", sns, cs)
	}
	for i := 1; i < len(rows14); i++ {
		if rows14[i].ScalingRatio < rows14[i-1].ScalingRatio {
			t.Fatal("fig14 rows not sorted by scaling ratio")
		}
	}
	rows15 := Fig15Relative(outs)
	wins := 0
	for _, r := range rows15 {
		if r.SNSOverCE > 1 {
			wins++
		}
	}
	if wins < len(rows15)/2 {
		t.Errorf("SNS beats CE in only %d/%d sequences", wins, len(rows15))
	}
	rows16 := Fig16RunTime(outs)
	for _, r := range rows16 {
		if r.SNSAvg > r.CSAvg+0.10 {
			t.Errorf("SNS avg normalized run time %.3f far above CS %.3f", r.SNSAvg, r.CSAvg)
		}
		if r.SNSAvg > 1.30 {
			t.Errorf("SNS avg normalized run time %.3f, want bounded (paper: <= 1.172)", r.SNSAvg)
		}
	}
	// CS's worst-case slowdown exceeds SNS's somewhere (resource-blind
	// co-location; paper sees up to 3.5x under CS).
	worstCS, worstSNS := 0.0, 0.0
	for _, r := range rows16 {
		if r.CSMax > worstCS {
			worstCS = r.CSMax
		}
		if r.SNSMax > worstSNS {
			worstSNS = r.SNSMax
		}
	}
	if worstCS <= worstSNS {
		t.Errorf("CS worst slowdown %.2f not above SNS %.2f", worstCS, worstSNS)
	}
}

// TestSequenceStudyMallocs is the end-to-end allocation gate on the
// testbed study: one 20-job sequence through CE, CS and SNS — three
// schedulers, their daemons and engines, sixty jobs — in at most 1,600
// heap objects. Sequence 0 read 8,030 when every placement attempt
// formatted its profile key, sorted its scale ladder and built a core
// vector per rung, and every actuation built two free lists and a launch
// line; 1,667 after that; 1,494 since schedulers stopped building a
// score cache and a job map, and daemons a binding map. A count, not a
// clock. The auditor is paused because it
// re-derives what the run memoises, allocating as it goes.
func TestSequenceStudyMallocs(t *testing.T) {
	e := env(t)
	defer invariant.Pause()()
	study := func() {
		if _, err := runOneSequenceStudy(e, 0, SeqJobs); err != nil {
			t.Fatal(err)
		}
	}
	study() // measures the CE baselines the later runs read from cache
	if allocs := testing.AllocsPerRun(5, study); allocs > 1600 {
		t.Errorf("a %d-job sequence study allocates %.0f objects, want at most 1600", SeqJobs, allocs)
	}
}

func TestFig17Shape(t *testing.T) {
	r, err := Fig17LoadBalance(env(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Variance[sched.SNS] >= r.Variance[sched.CE] {
		t.Errorf("SNS bandwidth variance %.3f not below CE %.3f (paper: 0.25 vs 0.40)",
			r.Variance[sched.SNS], r.Variance[sched.CE])
	}
	for _, p := range []sched.Policy{sched.CE, sched.SNS} {
		if len(r.Samples[p]) == 0 {
			t.Fatalf("%v recorded no samples", p)
		}
		total := 0
		for _, c := range r.Histogram[p] {
			total += c
		}
		if total != len(r.Samples[p]) {
			t.Errorf("%v histogram total %d != %d samples", p, total, len(r.Samples[p]))
		}
		if len(r.Matrix[p]) != 8 {
			t.Errorf("%v matrix has %d node rows, want 8", p, len(r.Matrix[p]))
		}
	}
}

func TestFig19Shape(t *testing.T) {
	rows, err := Fig19ScalingRatio(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d rows, want 11", len(rows))
	}
	if rows[0].TurnNorm < 0.97 || rows[0].TurnNorm > 1.03 {
		t.Errorf("ratio-0 turnaround %.3f, want converged with CE", rows[0].TurnNorm)
	}
	// Run time decreases monotonically with the scaling ratio.
	for i := 1; i < len(rows); i++ {
		if rows[i].RunNorm > rows[i-1].RunNorm+1e-9 {
			t.Errorf("run time not decreasing at ratio %.1f: %.3f > %.3f",
				rows[i].TargetRatio, rows[i].RunNorm, rows[i-1].RunNorm)
		}
	}
	// Mid-range ratios: turnaround gain over 10% (paper: 35%-85%).
	for _, r := range rows {
		if r.TargetRatio >= 0.4 && r.TargetRatio <= 0.8 && r.TurnNorm > 0.95 {
			t.Errorf("turnaround %.3f at ratio %.1f, want clear gain", r.TurnNorm, r.TargetRatio)
		}
	}
	// Wait time grows again at very high ratios (fragmentation).
	if !(rows[10].WaitNorm > rows[6].WaitNorm) {
		t.Errorf("wait time did not rise at extreme ratio: %.3f vs %.3f",
			rows[10].WaitNorm, rows[6].WaitNorm)
	}
}

func TestFig20ShapeReduced(t *testing.T) {
	cfg := Fig20Config{
		Seed: 7, Jobs: 600, Span: 200, MaxNodes: 512,
		Sizes:  []int{1024, 4096},
		Ratios: []float64{0.9, 0.5},
	}
	rows, err := Fig20TraceSim(env(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	find := func(size int, ratio float64) Fig20Row {
		for _, r := range rows {
			if r.ClusterNodes == size && r.ScalingRatio == ratio {
				return r
			}
		}
		t.Fatalf("row %d@%.1f missing", size, ratio)
		return Fig20Row{}
	}
	// On the uncongested cluster, SNS gains more at ratio 0.9 than 0.5
	// (the paper's central large-cluster finding).
	hi, lo := find(4096, 0.9), find(4096, 0.5)
	if hi.SNSTurnImprovePct <= lo.SNSTurnImprovePct {
		t.Errorf("gain at ratio 0.9 (%.1f%%) not above ratio 0.5 (%.1f%%)",
			hi.SNSTurnImprovePct, lo.SNSTurnImprovePct)
	}
	for _, r := range rows {
		if r.SNSTurnImprovePct <= 0 {
			t.Errorf("SNS gain %.1f%% at %d@%.1f, want positive",
				r.SNSTurnImprovePct, r.ClusterNodes, r.ScalingRatio)
		}
		if r.SNSRun >= r.CERun {
			t.Errorf("SNS run share %.3f not below CE %.3f", r.SNSRun, r.CERun)
		}
		// Unmanaged sharing slows jobs down: both baselines inflate run
		// time over CE, and SNS beats them (the paper's comparison with
		// the two-slot related work).
		if r.CSRun < r.CERun {
			t.Errorf("CS run share %.3f below CE %.3f", r.CSRun, r.CERun)
		}
		if r.TwoSlotRun < r.CERun {
			t.Errorf("TwoSlot run share %.3f below CE %.3f", r.TwoSlotRun, r.CERun)
		}
		if r.SNSTurnImprovePct <= r.CSTurnImprovePct ||
			r.SNSTurnImprovePct <= r.TwoSlotTurnImprovePct {
			t.Errorf("SNS gain %.1f%% not above CS %.1f%% / TwoSlot %.1f%% at %d@%.1f",
				r.SNSTurnImprovePct, r.CSTurnImprovePct, r.TwoSlotTurnImprovePct,
				r.ClusterNodes, r.ScalingRatio)
		}
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable([][]string{{"a", "bb"}, {"ccc", "d"}})
	want := "a    bb\nccc  d \n"
	if s != want {
		t.Errorf("FormatTable = %q, want %q", s, want)
	}
	if FormatTable(nil) != "" {
		t.Error("FormatTable(nil) not empty")
	}
}

func TestTablesRender(t *testing.T) {
	e := env(t)
	rows3 := Fig3Stream(e)
	if got := Fig3Table(rows3); len(got) != 29 {
		t.Errorf("fig3 table rows %d, want 29", len(got))
	}
	outs, err := RunSequences(e, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := Fig14Table(Fig14Throughput(outs)); len(got) != 4 {
		t.Errorf("fig14 table rows %d, want 4", len(got))
	}
	if got := Fig15Table(Fig15Relative(outs)); len(got) != 4 {
		t.Errorf("fig15 table rows %d, want 4", len(got))
	}
	if got := Fig16Table(Fig16RunTime(outs)); len(got) != 3 {
		t.Errorf("fig16 table rows %d, want 3", len(got))
	}
}

func TestFig16Violations(t *testing.T) {
	outs, err := RunSequences(env(t), 6, 20)
	if err != nil {
		t.Fatal(err)
	}
	v := Fig16Violations(outs)
	if v.Executions != 6*20 {
		t.Fatalf("counted %d executions, want 120", v.Executions)
	}
	// The paper sees 19%% of executions violate; a small prototype
	// share (non-zero but minority) is the expected shape.
	frac := float64(v.Violations) / float64(v.Executions)
	if frac > 0.5 {
		t.Errorf("violation fraction %.2f implausibly high", frac)
	}
	if v.Violations > 0 && v.MaxExcessPct <= 0 {
		t.Error("violations recorded without excess stats")
	}
}

func TestAllFigureTablesRender(t *testing.T) {
	e := env(t)
	if rows, err := Fig2Scaling(e); err != nil || len(Fig2Table(rows)) != 5 {
		t.Errorf("fig2 table: %v", err)
	}
	if rows, err := Fig4Bandwidth(e); err != nil || len(Fig4Table(rows)) != 5 {
		t.Errorf("fig4 table: %v", err)
	}
	if rows, err := Fig5MissRate(e); err != nil || len(Fig5Table(rows)) != 5 {
		t.Errorf("fig5 table: %v", err)
	}
	if rows, err := Fig6WaySweep(e); err != nil || len(Fig6Table(rows)) != 5 {
		t.Errorf("fig6 table: %v", err)
	}
	if rows, err := Fig7CommBreakdown(e); err != nil || len(Fig7Table(rows)) != 17 {
		t.Errorf("fig7 table: %v", err)
	}
	if rows, err := Fig12CacheSensitivity(e); err != nil || len(Fig12Table(rows)) != 13 {
		t.Errorf("fig12 table: %v", err)
	}
	if rows, err := Fig13SpeedupScaling(e); err != nil || len(Fig13Table(rows)) != 11 {
		t.Errorf("fig13 table: %v", err)
	}
	if r, err := Fig17LoadBalance(e, 5); err != nil || len(Fig17Table(r)) < 4 {
		t.Errorf("fig17 table: %v", err)
	}
	if rows, err := Fig19ScalingRatio(e); err != nil || len(Fig19Table(rows)) != 12 {
		t.Errorf("fig19 table: %v", err)
	}
	cfg := Fig20Config{Seed: 2, Jobs: 150, Span: 100, MaxNodes: 64,
		Sizes: []int{256}, Ratios: []float64{0.9}}
	if rows, err := Fig20TraceSim(e, cfg); err != nil || len(Fig20Table(rows)) != 2 {
		t.Errorf("fig20 table: %v", err)
	}
}
