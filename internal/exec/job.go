// Package exec simulates the execution of parallel jobs on a cluster. It
// is the stand-in for the paper's physical testbed: given placements (which
// nodes, how many cores, which LLC ways), it computes each job's progress
// under memory-bandwidth contention, cache partitioning or uncontrolled
// sharing, memory-latency load, and network communication — and produces
// the simulated PMU readings the profiler and the monitoring figures use.
//
// The model is fluid: a job's instantaneous completion rate is
//
//	dq/dt = 1 / (W/r(t) + S)
//
// where W is per-process compute work, r(t) the contended per-core
// instruction rate (gated by the job's slowest node), and S its
// communication time for the current footprint. Rates are recomputed
// whenever any node's population or allocation changes, which makes the
// simulation event-driven and exact for piecewise-constant conditions.
package exec

import (
	"fmt"

	"spreadnshare/internal/app"
	"spreadnshare/internal/pmu"
	"spreadnshare/internal/sim"
	"spreadnshare/internal/units"
)

// State is a job's lifecycle state. The exhaustive lint pass keeps
// every switch over it covering all four states.
//
//sns:enum
type State int

const (
	// Pending jobs are known but not yet launched.
	Pending State = iota
	// Running jobs hold resources and make progress.
	Running
	// Done jobs have finished and released their resources.
	Done
	// Cancelled jobs were aborted mid-run (failure injection or an
	// operator kill); their resources are released like Done jobs but
	// their work did not complete.
	Cancelled
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Job is one application instance to execute. Placement fields are set by
// the scheduler before Launch.
type Job struct {
	// ID is unique within an Engine.
	ID int
	// Prog is the program model this job runs.
	Prog *app.Model
	// Procs is the requested process count.
	Procs int
	// Alpha is the user slowdown threshold (0 < alpha <= 1); the
	// engine records it for the scheduler, it does not enforce it.
	Alpha float64
	// Submit is the submission time in seconds.
	Submit float64

	// Nodes and CoresByNode describe the placement: CoresByNode[i]
	// processes run on Nodes[i]. Their core sums must equal Procs.
	Nodes       []int
	CoresByNode []int
	// Ways is the per-node CAT allocation; 0 means unmanaged sharing.
	Ways units.Ways
	// BWCap is a per-node memory-bandwidth ceiling enforced by Intel
	// MBA throttling; 0 means uncapped. The engine clamps the job's
	// demanded bandwidth to the cap before contention resolution, so a
	// job can never exceed its reservation — the enforcement the
	// paper's testbed lacked (Section 4.4).
	BWCap units.GBps
	// Exclusive marks the nodes as dedicated (informational; the
	// scheduler enforces it).
	Exclusive bool

	// Start and Finish are set by the engine.
	Start, Finish float64
	// State moves Pending>Running, then Running>Done or >Cancelled; each
	// Engine write follows a check of the state it leaves.
	State State

	// remaining is normalized remaining work in [0, 1].
	remaining float64
	// rate is dq/dt under current conditions.
	rate float64
	// lastT is the time progress was last advanced.
	lastT float64
	// shares holds the per-node contention outcome, indexed parallel
	// to Nodes (shares[i] is the outcome on Nodes[i]).
	shares []nodeShare
	// perCoreRate is the gating (minimum) per-core rate in GIPS.
	perCoreRate float64
	// computeFrac is the fraction of wall time spent computing.
	computeFrac float64
	// work and comm are WorkPerProcess and CommSeconds for the launched
	// footprint, fixed at Launch.
	work, comm float64
	// metrics is the current instantaneous reading.
	metrics pmu.Metrics
	// counters accumulate over the run.
	counters pmu.Counters
	// wayOverride, when positive, forces the node-level way allocation
	// (the profiler's CAT manipulation); it bypasses Ways.
	wayOverride units.Ways
	// phaseMul is the current bandwidth-phase multiplier (1 when
	// phase simulation is off).
	phaseMul float64
	// finishEv is the pending completion event.
	finishEv *sim.Event
	// finishFn is the completion callback, created once at launch so
	// finish-event reschedules allocate nothing.
	finishFn func()
	// flipFn is the bandwidth-phase toggle callback, created once at
	// launch when phase simulation is on.
	flipFn func()
	// seen is the engine's recompute stamp, used to deduplicate the
	// affected-job list without a scratch map.
	seen uint64
}

// nodeShare is the outcome of contention resolution on one node for one
// job.
type nodeShare struct {
	rate    float64    // per-core instruction rate, GIPS
	grant   units.GBps // achieved memory bandwidth on this node
	demand  units.GBps // demanded bandwidth on this node
	ioGrant units.GBps // achieved file-system bandwidth
	missPct float64
	effWays float64
	cores   int
}

// SpanNodes returns the number of nodes the placement uses.
func (j *Job) SpanNodes() int { return len(j.Nodes) }

// TotalCores returns the placement's core total.
func (j *Job) TotalCores() int {
	c := 0
	for _, n := range j.CoresByNode {
		c += n
	}
	return c
}

// Remaining returns normalized remaining work in [0, 1].
func (j *Job) Remaining() float64 { return j.remaining }

// RunTime returns start-to-finish time for a done job.
func (j *Job) RunTime() float64 { return j.Finish - j.Start }

// WaitTime returns submit-to-start time.
func (j *Job) WaitTime() float64 { return j.Start - j.Submit }

// Turnaround returns submit-to-finish time.
func (j *Job) Turnaround() float64 { return j.Finish - j.Submit }

// NodeSeconds returns nodes x run time, the paper's resource-usage
// accounting.
func (j *Job) NodeSeconds() float64 { return float64(j.SpanNodes()) * j.RunTime() }

// EvenSplit divides procs across n nodes as evenly as possible (the
// paper's load-balanced process division), front-loading the remainder.
func EvenSplit(procs, n int) []int {
	if n <= 0 || procs <= 0 {
		return nil
	}
	out := make([]int, n)
	base, rem := procs/n, procs%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
