// The PR 5 performance gates. The score-cache gate certifies the
// incremental search on the regime it exists for — many small jobs on a
// huge cluster, where the from-scratch search rescans whole buckets per
// placement while the cache walks a few entries off the front. The full
// Figure 20 replay is NOT that regime (its jobs average ~2,700 nodes, so
// replay time is dominated by per-node reservation mutations either
// way); BENCH_PR5.json records both shapes.
package spreadnshare

import (
	"runtime"
	"testing"

	"spreadnshare/internal/experiments"
	"spreadnshare/internal/invariant"
	"spreadnshare/internal/par"
	"spreadnshare/internal/trace"
)

// cachedGateTrace is the search-dominated workload: 3,000 jobs of at
// most 64 nodes replayed on 32,768 nodes, so placement queries vastly
// outnumber per-node mutations.
func cachedGateTrace(tb testing.TB) []trace.Job {
	tb.Helper()
	jobs := trace.Synthesize(42, trace.GenConfig{Jobs: 3000, SpanHours: 400, MaxNodes: 64})
	trace.MapPrograms(42, jobs,
		experiments.TraceScalingPrograms, experiments.TraceOtherPrograms, 0.9)
	return jobs
}

// TestCachedReplaySpeedup enforces the >=4x gate: the cached SNS replay
// of the small-job 32K-node workload must beat the uncached one by at
// least 4x while producing the bit-identical average turnaround. Run it
// without -short to re-certify after touching the cache or the search.
func TestCachedReplaySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup gate needs benchmark runs")
	}
	t.Cleanup(invariant.Pause())
	env, err := experiments.SharedEnv()
	if err != nil {
		t.Fatal(err)
	}
	jobs := cachedGateTrace(t)
	turns := map[bool]float64{}
	run := func(noCache bool) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := trace.DefaultSimConfig(32768, trace.SNS)
				cfg.NoScoreCache = noCache
				r, err := trace.Simulate(jobs, env.DB, env.Spec.Node, cfg)
				if err != nil {
					b.Fatal(err)
				}
				turns[noCache] = r.AvgTurn
			}
		})
	}
	cached := run(false)
	uncached := run(true)
	if turns[false] != turns[true] {
		t.Fatalf("cached replay avg turnaround %v != uncached %v — the cache changed placements",
			turns[false], turns[true])
	}
	speedup := float64(uncached.NsPerOp()) / float64(cached.NsPerOp())
	t.Logf("cached %v/op, uncached %v/op, speedup %.1fx (avg turnaround %.6f both)",
		cached.NsPerOp(), uncached.NsPerOp(), speedup, turns[false])
	if speedup < 4 {
		t.Errorf("cached replay only %.2fx faster than uncached, gate is 4x", speedup)
	}
}

// TestParallelRunnerSpeedup enforces the >=2x parallel-runner gate on
// multi-core machines: fanning a reduced Figure 20 grid over the worker
// pool must at least halve wall-clock versus the same grid at width 1.
// Machines with fewer than 4 CPUs skip — at 2 CPUs the gate would
// demand perfect linear scaling — but the digest-equivalence test
// (TestParallelRunnerDigestsMatchSerial) still runs there.
func TestParallelRunnerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup gate needs benchmark runs")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("parallel speedup needs >=4 CPUs, have %d", runtime.GOMAXPROCS(0))
	}
	t.Cleanup(invariant.Pause())
	env, err := experiments.SharedEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Fig20Config{
		Seed: 42, Jobs: 800, Span: 200, MaxNodes: 64,
		Sizes: []int{1024, 2048}, Ratios: []float64{0.9},
	}
	run := func(workers int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			prev := par.SetWorkers(workers)
			defer par.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig20TraceSim(env, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	serial := run(1)
	parallel := run(0)
	speedup := float64(serial.NsPerOp()) / float64(parallel.NsPerOp())
	t.Logf("serial %v/op, %d-wide %v/op, speedup %.2fx",
		serial.NsPerOp(), runtime.GOMAXPROCS(0), parallel.NsPerOp(), speedup)
	if speedup < 2 {
		t.Errorf("parallel runner only %.2fx faster than serial, gate is 2x", speedup)
	}
}
