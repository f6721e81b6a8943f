package trace

import (
	"fmt"
	"math"
	"sort"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/stats"
	"spreadnshare/internal/svc"
)

// Policy selects the strategy replayed by the trace simulator. It is the
// shared kernel enum, so the replay exercises the very same placement
// searches as the testbed scheduler; this package only supplies the trace
// generation, the runtime models, and the result summaries. Figure 20
// compares all four policies.
type Policy = placement.Policy

const (
	// CE replays jobs at their trace footprint on dedicated nodes.
	CE = placement.CE
	// CS shares nodes by free cores without scaling or partitioning.
	CS = placement.CS
	// SNS scales jobs per their program profile and co-locates them
	// under (c, w, b) accounting.
	SNS = placement.SNS
	// TwoSlot replays the related-work half-node-slot baseline.
	TwoSlot = placement.TwoSlot
)

// SimConfig tunes a replay.
type SimConfig struct {
	// ClusterNodes is the simulated cluster size (paper: 4K-32K).
	ClusterNodes int
	// Policy is the placement strategy to replay.
	Policy Policy
	// CoresPerJobNode is the per-node process count of trace jobs at
	// scale 1; the paper re-sizes Trinity jobs to 16-core node slices
	// so its testbed profiles remain valid.
	CoresPerJobNode int
	// Alpha is the slowdown threshold for SNS demand estimation.
	Alpha float64
	// MaxScale bounds the scale-factor search.
	MaxScale int
	// ScanDepth bounds how many pending jobs one scheduling pass may
	// try beyond the queue head (backfill depth).
	ScanDepth int
}

// DefaultSimConfig returns the paper's settings for a cluster size.
func DefaultSimConfig(nodes int, p Policy) SimConfig {
	return SimConfig{
		ClusterNodes:    nodes,
		Policy:          p,
		CoresPerJobNode: 16,
		Alpha:           0.9,
		MaxScale:        8,
		ScanDepth:       32,
	}
}

// Validate checks a replay configuration against its inputs and node
// type, returning a descriptive error for the first problem found.
// Simulate (and so SimulateAll) calls it before touching any state, so
// a bad config in a parallel fan-out fails fast with its own message
// instead of a mid-replay panic.
func (cfg SimConfig) Validate(jobs []Job, db *profiler.DB, node hw.NodeSpec) error {
	if cfg.ClusterNodes <= 0 {
		return fmt.Errorf("trace: cluster needs nodes, got %d", cfg.ClusterNodes)
	}
	if cfg.CoresPerJobNode <= 0 || cfg.CoresPerJobNode > node.Cores.Int() {
		return fmt.Errorf("trace: bad CoresPerJobNode %d (node has %d cores)", cfg.CoresPerJobNode, node.Cores.Int())
	}
	if cfg.ScanDepth < 0 {
		return fmt.Errorf("trace: negative backfill scan depth %d", cfg.ScanDepth)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("trace: no jobs to replay")
	}
	if cfg.Policy != CE {
		if db == nil {
			return fmt.Errorf("trace: policy %s replays profiled programs but the profile DB is nil", cfg.Policy)
		}
		if cfg.Policy == SNS || cfg.Policy == CS {
			if cfg.MaxScale < 1 {
				return fmt.Errorf("trace: policy %s needs MaxScale >= 1, got %d", cfg.Policy, cfg.MaxScale)
			}
		}
		if cfg.Policy == SNS && !(cfg.Alpha > 0 && cfg.Alpha <= 1) {
			return fmt.Errorf("trace: SNS slowdown threshold Alpha must be in (0, 1], got %g", cfg.Alpha)
		}
	}
	return nil
}

// SimJob is the outcome of one replayed job.
type SimJob struct {
	Trace         Job
	Start, Finish float64
	Scale         int
	NodesUsed     int
	// Nodes is the placed node set, in the kernel's selection order.
	Nodes []int
}

// Wait returns submit-to-start.
func (j *SimJob) Wait() float64 { return j.Start - j.Trace.SubmitSec }

// Run returns start-to-finish.
func (j *SimJob) Run() float64 { return j.Finish - j.Start }

// Turnaround returns submit-to-finish.
func (j *SimJob) Turnaround() float64 { return j.Finish - j.Trace.SubmitSec }

// Result summarizes a replay.
type Result struct {
	Policy     Policy
	Jobs       []*SimJob
	AvgWait    float64
	AvgRun     float64
	AvgTurn    float64
	Throughput float64
	Makespan   float64
	// Wait-time distribution percentiles, for queueing analysis.
	WaitP50, WaitP90, WaitP99 float64
}

// Simulate replays a mapped trace on a cluster of the given node type.
// Every job's program must be mapped, and — for every policy but CE,
// whose runtime is the trace runtime — profiled in db at the configured
// per-node process count.
//
// The replay is one of svc.Driver's two input sources (the daemon is
// the other): arrivals in submission order, each after the completions
// before it and followed by its own admission round. All placement,
// queue, completion and audit logic lives in svc; the replay owns the
// arrival stream and the summaries. Its private core never leaves the
// calling goroutine, so the whole replay is a "core" owner context.
//
//sns:goroutine core
func Simulate(jobs []Job, db *profiler.DB, node hw.NodeSpec, cfg SimConfig) (*Result, error) {
	if err := cfg.Validate(jobs, db, node); err != nil {
		return nil, err
	}
	core, err := svc.New(svc.Config{
		Node:           node,
		Nodes:          cfg.ClusterNodes,
		Policy:         cfg.Policy,
		MaxScale:       cfg.MaxScale,
		ScanDepth:      cfg.ScanDepth,
		AgingPeriodSec: 1,
		AuditLabel:     "trace",
	})
	if err != nil {
		return nil, err
	}
	defer core.Close()
	res := &Result{Policy: cfg.Policy}
	// Build every job's spec (and fail on unplaceable or unprofiled
	// jobs) before the clock starts.
	specs := make([]svc.JobSpec, len(jobs))
	for i := range jobs {
		tj := jobs[i]
		if tj.Nodes > cfg.ClusterNodes {
			return nil, fmt.Errorf("trace: job %d needs %d nodes on a %d-node cluster",
				tj.ID, tj.Nodes, cfg.ClusterNodes)
		}
		// The clock starts at 0 and cannot schedule NaN or ±Inf, and the
		// core refuses a run time it could never finish.
		if !(tj.SubmitSec >= 0) || math.IsInf(tj.SubmitSec, 1) {
			return nil, fmt.Errorf("trace: job %d submits at %g s", tj.ID, tj.SubmitSec)
		}
		if !(tj.RuntimeSec >= 0) || math.IsInf(tj.RuntimeSec, 1) {
			return nil, fmt.Errorf("trace: job %d runs for %g s", tj.ID, tj.RuntimeSec)
		}
		var prof *profiler.Profile
		if cfg.Policy != CE {
			p, ok := db.Get(tj.Program, cfg.CoresPerJobNode)
			if !ok {
				return nil, fmt.Errorf("trace: job %d program %q unprofiled", tj.ID, tj.Program)
			}
			prof = p
		}
		res.Jobs = append(res.Jobs, &SimJob{Trace: tj})
		specs[i] = svc.JobSpec{
			Program:      tj.Program,
			BaseNodes:    tj.Nodes,
			CoresPerNode: cfg.CoresPerJobNode,
			RuntimeSec:   tj.RuntimeSec,
			Alpha:        cfg.Alpha,
			MultiNode:    true,
			Profile:      prof,
			Intensive:    cfg.Policy == TwoSlot && svc.BWIntensive(prof, node),
		}
	}
	// order[id] is the trace index of core job id: admission follows
	// submission time, ties in trace order (a trace file need not be
	// submit-sorted).
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].SubmitSec < jobs[order[b]].SubmitSec })
	d := svc.NewDriver(core, svc.PolicyRuntime(cfg.Policy, node))
	for _, i := range order {
		t := jobs[i].SubmitSec
		d.Advance(t)
		if _, err := core.Submit(specs[i], t); err != nil {
			// Specs were validated above; a core rejection here is a
			// programming error.
			panic(err)
		}
		d.Round(t)
	}
	d.Advance(math.Inf(1))
	if n := core.QueuedLen(); n > 0 {
		first, _ := core.FirstQueued()
		tj := jobs[order[first.ID]]
		return nil, fmt.Errorf(
			"trace: %d jobs never placed under %s (first stuck: job %d wants %d nodes × %d cores, max free is %d cores/node)",
			n, cfg.Policy, tj.ID, tj.Nodes, cfg.CoresPerJobNode, core.MaxFreeCores())
	}
	core.Each(func(j *svc.Job) {
		out := res.Jobs[order[j.ID]]
		out.Start, out.Finish, out.Scale, out.NodesUsed, out.Nodes = j.StartSec, j.FinishSec, j.Scale, j.NodesUsed, j.Nodes
	})
	// Summaries.
	waits := make([]float64, len(res.Jobs))
	runs := make([]float64, len(res.Jobs))
	turns := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		waits[i], runs[i], turns[i] = j.Wait(), j.Run(), j.Turnaround()
		if j.Finish > res.Makespan {
			res.Makespan = j.Finish
		}
	}
	res.AvgWait = stats.Mean(waits)
	res.AvgRun = stats.Mean(runs)
	res.AvgTurn = stats.Mean(turns)
	res.Throughput = stats.Throughput(turns)
	sorted := append([]float64(nil), waits...)
	sort.Float64s(sorted)
	res.WaitP50 = stats.Percentile(sorted, 0.5)
	res.WaitP90 = stats.Percentile(sorted, 0.9)
	res.WaitP99 = stats.Percentile(sorted, 0.99)
	return res, nil
}
