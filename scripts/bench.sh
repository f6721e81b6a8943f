#!/usr/bin/env bash
# bench.sh — run the benchmark sets of each performance PR with -benchmem
# and emit machine-readable BENCH_PR<n>.json files next to the repo root.
#
# PR 1 covers the co-run engine / event-queue hot path (BENCH_PR1.json);
# PR 2 covers the placement kernel: the full 32K-node Figure 20 replay
# per policy plus the indexed-vs-linear candidate-search pair
# (BENCH_PR2.json); PR 5 covers the incremental score cache and the
# deterministic parallel runner: the Trace32K replay set (now cached),
# the cached-vs-uncached gate replay pair, and the parallel-speedup-x
# metric (BENCH_PR5.json); PR 7 covers the service admission and
# daemon-latency set (BENCH_PR7.json). Pass "pr1", "pr2", "pr5" or "pr7"
# to run one set; default is all.
#
# The figure-level and trace-replay targets run with -benchtime=1x: the
# figure studies are cached across b.N iterations (see bench_test.go),
# so only a single-iteration run measures real end-to-end work.
#
# Each JSON carries two sections:
#   baseline — numbers recorded on the pre-optimization tree (frozen)
#   current  — this run, parsed from `go test -bench` output
set -euo pipefail
cd "$(dirname "$0")/.."

which="${1:-all}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# emit_current parses `go test -bench` lines from $tmp into JSON rows.
emit_current() {
	awk '
		/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			printf "%s    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", sep, name, $2
			msep = ""
			for (i = 3; i + 1 <= NF; i += 2) {
				printf "%s\"%s\": %s", msep, $(i + 1), $i
				msep = ", "
			}
			printf "}}"
			sep = ",\n"
		}
		END { print "" }
	' "$tmp"
}

if [[ "$which" == "all" || "$which" == "pr1" ]]; then
	: >"$tmp"
	go test -run '^$' -bench 'Fig14Throughput|Fig17LoadBalance' -benchmem -benchtime=1x . | tee -a "$tmp"
	go test -run '^$' -bench 'SoloRun|ContendedNode' -benchmem ./internal/exec | tee -a "$tmp"
	go test -run '^$' -bench 'QueueThroughput|QueueDeepHeap' -benchmem ./internal/sim | tee -a "$tmp"
	go test -run '^$' -bench 'WaterFill' -benchmem ./internal/hw | tee -a "$tmp"

	{
		cat <<'EOF'
{
  "issue": "PR 1: allocation-free hot path for the co-run execution engine and event queue",
  "note": "baseline recorded at the growth seed (commit 317d902); figure targets use -benchtime=1x (sequence study cached across iterations)",
  "baseline": [
    {"name": "BenchmarkFig14Throughput", "iterations": 1, "metrics": {"ns/op": 117170350, "B/op": 17889832, "allocs/op": 560475, "CS-gain-%": 7.874, "SNS-gain-%": 20.22}},
    {"name": "BenchmarkSoloRun", "metrics": {"ns/op": 4031, "allocs/op": 44}},
    {"name": "BenchmarkContendedNode", "metrics": {"ns/op": 36470, "allocs/op": 252}},
    {"name": "BenchmarkQueueThroughput", "metrics": {"ns/op": 59.75, "allocs/op": 1}},
    {"name": "BenchmarkQueueDeepHeap", "metrics": {"ns/op": 427.0, "allocs/op": 1}}
  ],
  "current": [
EOF
		emit_current
		cat <<'EOF'
  ]
}
EOF
	} >BENCH_PR1.json
	echo "wrote BENCH_PR1.json"
fi

if [[ "$which" == "all" || "$which" == "pr2" ]]; then
	: >"$tmp"
	go test -run '^$' -bench 'Trace32K' -benchmem -benchtime=1x . | tee -a "$tmp"
	go test -run '^$' -bench 'IndexedFind32K|LinearFind32K' -benchmem ./internal/placement | tee -a "$tmp"

	{
		cat <<'EOF'
{
  "issue": "PR 2: shared placement kernel with an indexed candidate search",
  "note": "baseline recorded pre-refactor (commit 02172ac): Trace32K ran the trace simulator's private greedy first-fit (no node scoring), and LinearFind32K ran core.FindNodes' full-cluster linear scan. The kernel replay now runs the testbed scheduler's scored tightest-group search in both layers, so the Trace32K rows trade throughput for placement fidelity; the Find32K pair isolates the index itself on identical selection semantics (gate: indexed >= 2x linear, enforced by TestIndexedSearchSpeedup).",
  "baseline": [
    {"name": "BenchmarkTrace32K/CE", "iterations": 1, "metrics": {"ns/op": 108500000, "B/op": 34171077, "allocs/op": 42370}},
    {"name": "BenchmarkTrace32K/SNS", "iterations": 1, "metrics": {"ns/op": 639500000, "B/op": 169756866, "allocs/op": 91889}},
    {"name": "BenchmarkLinearFind32K", "metrics": {"ns/op": 913800}}
  ],
  "current": [
EOF
		emit_current
		cat <<'EOF'
  ]
}
EOF
	} >BENCH_PR2.json
	echo "wrote BENCH_PR2.json"
fi

if [[ "$which" == "all" || "$which" == "pr5" ]]; then
	: >"$tmp"
	go test -run '^$' -bench 'Trace32K' -benchmem -benchtime=3x . | tee -a "$tmp"
	go test -run '^$' -bench 'CachedReplay32K|UncachedReplay32K' -benchmem -benchtime=1x . | tee -a "$tmp"
	go test -run '^$' -bench 'ParallelRunner' -benchtime=1x . | tee -a "$tmp"

	{
		cat <<'EOF'
{
  "issue": "PR 5: incremental score caching for the placement kernel + deterministic parallel experiment runner",
  "note": "baseline is BENCH_PR2.json's current section (commit 5ba08ff), re-quoted frozen; those runs kept the test-binary invariant auditor live, which the harness now pauses for every root benchmark, so part of the Trace32K delta is harness parity. The full Figure 20 replay places ~2,700 nodes per job, so its time is bounded by per-node reservation mutations the cache cannot remove (cached SNS lands ~1.7x faster end to end, with the ~1 GB of per-query rescoring allocations gone); the CachedReplay32K/UncachedReplay32K pair is the regime the cache exists for — many small jobs on 32K nodes, where queries dominate mutations — and is what TestCachedReplaySpeedup gates at >=4x. avg-turn-s must be bit-identical between the cached and uncached rows. parallel-speedup-x is serial-vs-full-width wall clock of a reduced Fig20 grid; it is ~1.0 on a single-CPU machine (this recording) and gated >=2x by TestParallelRunnerSpeedup where >=4 CPUs exist.",
  "baseline": [
    {"name": "BenchmarkTrace32K/CE", "iterations": 1, "metrics": {"ns/op": 263604553, "avg-turn-s": 2278, "B/op": 237290752, "allocs/op": 77603}},
    {"name": "BenchmarkTrace32K/CS", "iterations": 1, "metrics": {"ns/op": 241898707, "avg-turn-s": 2521, "B/op": 237441600, "allocs/op": 91695}},
    {"name": "BenchmarkTrace32K/SNS", "iterations": 1, "metrics": {"ns/op": 5708941050, "avg-turn-s": 1851, "B/op": 1227725408, "allocs/op": 115103}},
    {"name": "BenchmarkTrace32K/TwoSlot", "iterations": 1, "metrics": {"ns/op": 613616007, "avg-turn-s": 2555, "B/op": 627941080, "allocs/op": 272241}},
    {"name": "BenchmarkUncachedReplay32K", "iterations": 1, "metrics": {"ns/op": 612000000, "avg-turn-s": 1807}},
    {"name": "BenchmarkParallelRunner", "iterations": 1, "metrics": {"parallel-speedup-x": 1.0, "workers": 1}}
  ],
  "current": [
EOF
		emit_current
		cat <<'EOF'
  ]
}
EOF
	} >BENCH_PR5.json
	echo "wrote BENCH_PR5.json"
fi

if [[ "$which" == "all" || "$which" == "pr7" ]]; then
	: >"$tmp"
	go test -run '^$' -bench 'AdmissionSerial|AdmissionBatched' -benchmem -benchtime=1x . | tee -a "$tmp"
	go test -run '^$' -bench 'DaemonLoad' -benchtime=1x . | tee -a "$tmp"

	{
		cat <<'EOF2'
{
  "issue": "PR 7: scheduler-as-a-service — live cluster core behind an async REST daemon with batched admission",
  "note": "baseline is the serial admission discipline on the same tree (the AdmissionSerial row, frozen from this recording): one queue pass per submission, which is what trace.Simulate ran before the core was extracted and what a naive daemon would do per request. AdmissionBatched drains the same 4,096-job single-timestamp burst into one round — placements are bit-identical (the batched-admission invariant, gated by TestBatchedAdmissionEquivalence and TestSimulateBatchedEquivalence at batch sizes 1/64/4096) — and jobs/s is the admission throughput. DaemonLoad drives the full HTTP + async-op + scheduler-goroutine path with the deterministic load generator; p50-µs/p99-µs are accepted-to-applied submission latency, gated under 150ms p99 by TestSubmitLatencyGate where >=4 CPUs exist.",
  "baseline": [
    {"name": "BenchmarkAdmissionSerial", "iterations": 1, "metrics": {"ns/op": 32739960905, "jobs/s": 125.1}}
  ],
  "current": [
EOF2
		emit_current
		cat <<'EOF2'
  ]
}
EOF2
	} >BENCH_PR7.json
	echo "wrote BENCH_PR7.json"
fi
