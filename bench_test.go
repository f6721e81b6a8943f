// One benchmark per figure of the paper's evaluation: each regenerates
// its figure end to end (workload generation, scheduling, execution
// simulation, aggregation) and reports the figure's headline quantity as
// a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. EXPERIMENTS.md records the
// paper-versus-measured comparison for every target. These are
// reproduction targets, not the performance record: how fast the replay,
// the kernel and the daemon run is measured by the workloads of
// BENCHMARK.json (bench/README.md), and nothing here is gated on time.
package spreadnshare

import (
	"testing"

	"spreadnshare/internal/experiments"
	"spreadnshare/internal/invariant"
	"spreadnshare/internal/sched"
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	// Benchmarks measure the product hot path; the test-binary invariant
	// auditor would otherwise dominate large-cluster replays (the trace
	// package's benchmarks pause it the same way).
	b.Cleanup(invariant.Pause())
	env, err := experiments.SharedEnv()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFig01Motivating regenerates Figure 1: the MG+TS+HC mix under
// CE on three nodes versus SNS on two. Paper: node-seconds -34.6%, MG
// +9.0%, TS +7.2%, HC -3.8%.
func BenchmarkFig01Motivating(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1Motivating(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NodeSecsReductionPct, "node-secs-saved-%")
		b.ReportMetric(r.MGSpeedupPct, "MG-speedup-%")
	}
}

// BenchmarkFig02Scaling regenerates Figure 2: scaling behavior of
// 16-process MG/CG/EP/BFS runs across 1N16C..8N2C.
func BenchmarkFig02Scaling(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2Scaling(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Speedups[3], "MG-8x-speedup")
	}
}

// BenchmarkFig03Stream regenerates Figure 3: STREAM bandwidth versus
// active cores on the modelled node. Paper: 18.80 GB/s at one core,
// 118.26 GB/s at 28.
func BenchmarkFig03Stream(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3Stream(env)
		b.ReportMetric(rows[len(rows)-1].OverallGB, "peak-GB/s")
	}
}

// BenchmarkFig04Bandwidth regenerates Figure 4: per-node memory bandwidth
// consumption per scale. Paper anchors: MG 112.0, CG 42.9, EP 0.09, BFS
// 0.12 GB/s on one node.
func BenchmarkFig04Bandwidth(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4Bandwidth(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].PerNodeGB[0], "MG-1node-GB/s")
	}
}

// BenchmarkFig05MissRate regenerates Figure 5: LLC miss rate versus
// scale; dropping for MG/CG, rising for BFS.
func BenchmarkFig05MissRate(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5MissRate(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].MissPct[0], "CG-1node-miss-%")
	}
}

// BenchmarkFig06WaySweep regenerates Figure 6: performance versus CAT
// way allocation. Paper saturation points: MG 3 ways, CG 10, BFS 18, EP
// insensitive.
func BenchmarkFig06WaySweep(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6WaySweep(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Norm[2], "MG-3way-frac")
	}
}

// BenchmarkFig07CommBreakdown regenerates Figure 7: computation versus
// communication time, normalized to the 1-node run.
func BenchmarkFig07CommBreakdown(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7CommBreakdown(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Comm[3]*100, "MG-8x-comm-%")
	}
}

// BenchmarkFig12CacheSensitivity regenerates Figure 12: least ways for
// 90% performance plus bandwidth at that allocation, for all 12 programs.
func BenchmarkFig12CacheSensitivity(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12CacheSensitivity(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "programs")
	}
}

// BenchmarkFig13SpeedupScaling regenerates Figure 13: exclusive-run
// speedup at 2x/4x/8x. Paper: five scaling programs, CG peaking at 2x
// (+13%), four programs over +30% at their ideal scale, BFS compact.
func BenchmarkFig13SpeedupScaling(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13SpeedupScaling(env)
		if err != nil {
			b.Fatal(err)
		}
		var bw experiments.Fig13Row
		for _, r := range rows {
			if r.Program == "BW" {
				bw = r
			}
		}
		b.ReportMetric(bw.X8, "BW-8x-speedup")
	}
}

// benchSequences runs the 36-sequence study once and caches it for the
// Figure 14/15/16 targets.
var seqOutcomes []experiments.SequenceOutcome

func benchSequences(b *testing.B, env *experiments.Env) []experiments.SequenceOutcome {
	b.Helper()
	if seqOutcomes == nil {
		outs, err := experiments.RunSequences(env, experiments.SeqCount, experiments.SeqJobs)
		if err != nil {
			b.Fatal(err)
		}
		seqOutcomes = outs
	}
	return seqOutcomes
}

// BenchmarkFig14Throughput regenerates Figure 14: normalized throughput
// of 36 random 20-job sequences. Paper averages: CS +13.7%, SNS +19.8%
// over CE.
func BenchmarkFig14Throughput(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		outs := benchSequences(b, env)
		cs, sns := experiments.Fig14Summary(experiments.Fig14Throughput(outs))
		b.ReportMetric((sns-1)*100, "SNS-gain-%")
		b.ReportMetric((cs-1)*100, "CS-gain-%")
	}
}

// BenchmarkFig15Relative regenerates Figure 15: SNS throughput relative
// to CE and CS, sorted. Paper: SNS beats CE in 35/36 sequences and CS in
// 26/36.
func BenchmarkFig15Relative(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig15Relative(benchSequences(b, env))
		wins := 0
		for _, r := range rows {
			if r.SNSOverCE > 1 {
				wins++
			}
		}
		b.ReportMetric(float64(wins), "SNS-beats-CE")
	}
}

// BenchmarkFig16RunTime regenerates Figure 16: per-sequence normalized
// job run-time distributions. Paper: SNS average within 17.2% of CE; CS
// worst case 3.5x.
func BenchmarkFig16RunTime(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig16RunTime(benchSequences(b, env))
		worstSNS := 0.0
		for _, r := range rows {
			if r.SNSAvg > worstSNS {
				worstSNS = r.SNSAvg
			}
		}
		b.ReportMetric(worstSNS, "SNS-worst-avg-norm-run")
	}
}

// BenchmarkFig17LoadBalance regenerates Figures 17 and 18: per-node
// bandwidth heat map and episode histogram. Paper: bandwidth variance
// 0.40 under CE versus 0.25 under SNS.
func BenchmarkFig17LoadBalance(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17LoadBalance(env, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Variance[sched.CE], "CE-variance")
		b.ReportMetric(r.Variance[sched.SNS], "SNS-variance")
	}
}

// BenchmarkFig18Histogram regenerates Figure 18 standalone (episode
// counts by bandwidth interval; the smoothing effect of SNS).
func BenchmarkFig18Histogram(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17LoadBalance(env, 43)
		if err != nil {
			b.Fatal(err)
		}
		// SNS smooths the distribution: a smaller share of episodes
		// sits near idle or near peak. Fractions, because the two
		// policies produce different episode totals.
		frac := func(p sched.Policy, bin int) float64 {
			return float64(r.Histogram[p][bin]) / float64(len(r.Samples[p]))
		}
		last := len(r.Histogram[sched.CE]) - 1
		b.ReportMetric(100*(frac(sched.CE, 0)+frac(sched.CE, last)), "CE-extreme-%")
		b.ReportMetric(100*(frac(sched.SNS, 0)+frac(sched.SNS, last)), "SNS-extreme-%")
	}
}

// BenchmarkFig19ScalingRatio regenerates Figure 19: the BW/HC mix sweep
// over scaling ratios 0..1. Paper: >10% turnaround gain between ratios
// 0.35 and 0.85, convergence with CE at ratio 0, wait-time growth past
// 0.75.
func BenchmarkFig19ScalingRatio(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig19ScalingRatio(env)
		if err != nil {
			b.Fatal(err)
		}
		best := 1.0
		for _, r := range rows {
			if r.TurnNorm < best {
				best = r.TurnNorm
			}
		}
		b.ReportMetric((1-best)*100, "best-turnaround-gain-%")
	}
}

// BenchmarkAblationMechanisms decomposes SNS into its mechanisms (a
// design-choice study beyond the paper's figures): spread-only makes jobs
// faster but wastes nodes; share-only (CS) packs but butchers job
// protection; full SNS is the only configuration improving both; MBA
// bandwidth enforcement caps bursts without raising violations.
func BenchmarkAblationMechanisms(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationMechanisms(env, 12, experiments.SeqJobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Label == "SNS" {
				b.ReportMetric(r.ThroughputVsCE, "SNS-throughput/CE")
				b.ReportMetric(r.GeoNormRun, "SNS-norm-run")
			}
		}
	}
}

// BenchmarkAblationAlpha sweeps the slowdown threshold: looser alpha
// buys throughput at the price of more threshold violations.
func BenchmarkAblationAlpha(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationAlpha(env, 8, experiments.SeqJobs,
			[]float64{0.7, 0.8, 0.9, 0.95})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ThroughputVsCE, "alpha0.7-throughput/CE")
		b.ReportMetric(rows[2].ThroughputVsCE, "alpha0.9-throughput/CE")
	}
}

// BenchmarkAblationBeta sweeps the LLC-occupancy weight in the node
// selection score (the paper fixes beta = 2).
func BenchmarkAblationBeta(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBeta(env, 8, experiments.SeqJobs,
			[]float64{0, 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].ThroughputVsCE, "beta2-throughput/CE")
	}
}

// BenchmarkFig20TraceSim regenerates Figure 20: trace-driven replay of a
// Trinity-like workload (7,044 jobs, 1900 h) on clusters of 4K-32K nodes
// at scaling ratios 0.9 and 0.5. Paper: SNS improves throughput 15.7%
// over CE at 32K nodes and ratio 0.9.
func BenchmarkFig20TraceSim(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig20TraceSim(env, experiments.DefaultFig20Config())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ClusterNodes == 32768 && r.ScalingRatio == 0.9 {
				b.ReportMetric(r.SNSTurnImprovePct, "32K-0.9-gain-%")
			}
		}
	}
}

// BenchmarkLoadSweep runs the open-arrival extension: Poisson arrivals at
// offered loads from 20% to 120% of cluster capacity. SNS's run-time
// reductions compound into queueing relief as the system saturates.
func BenchmarkLoadSweep(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LoadSweep(env, []float64{0.4, 0.8, 1.2}, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].SNSTurnNorm, "SNS-turn/CE-at-1.2")
	}
}
