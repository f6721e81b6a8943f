// Package svc is the live scheduler core: the mutable online state of a
// cluster admitting jobs as they arrive, extracted from the trace
// replay's event loop so one admission implementation serves both the
// closed-trace simulators and the long-running daemon (cmd/snsd).
//
// The core owns a placement.SimState (capacity bookkeeping + free-core
// index, score-cached under SNS, the one policy whose search reads the
// cache), the aging placement.Pending queue, and the job lifecycle:
//
//	submitted ── Submit ──▶ Queued ── ScheduleRound ──▶ Running ── Complete ──▶ Done
//	                          │                            │
//	                          └────────── Cancel ──────────┴──▶ Cancelled
//
// It is deliberately clock-free: every entry point takes `now` as a
// parameter, so a discrete-event replay drives it with simulated seconds
// and the daemon drives it with wall-derived virtual seconds, and the
// same inputs always produce the same placements (the package is under
// the determinism lint). A Cluster is single-owner: the daemon confines
// it to one scheduler goroutine, the simulators to one event loop.
//
// Batched admission invariant (DESIGN.md "Scheduler as a service"): any
// number of Submit calls at one timestamp followed by one ScheduleRound
// places exactly the jobs, on exactly the nodes, that a ScheduleRound
// after each Submit would have placed — placement is monotone in free
// resources and rounds at a fixed timestamp are idempotent — so a burst
// of thousands of submissions legally drains into a single round.
package svc

import (
	"fmt"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
)

// Config shapes a live cluster core.
type Config struct {
	// Node is the per-node hardware spec; Nodes the cluster size.
	Node  hw.NodeSpec
	Nodes int
	// Policy is the placement strategy every admission round runs.
	Policy placement.Policy
	// MaxScale bounds the scale-factor search (SNS/CS).
	MaxScale int
	// ScanDepth bounds failed placement attempts per round (backfill
	// depth; 0 = unlimited).
	ScanDepth int
	// AgingPeriodSec is the wait that promotes a queued job one
	// priority level (<= 0: one second).
	AgingPeriodSec float64
	// AuditLabel names the runtime invariant auditor attached when
	// auditing is active ("" = "svc").
	AuditLabel string
}

// JobState is a job's position in the core lifecycle. The exhaustive
// lint pass keeps every switch over it covering all four states.
//
//sns:enum
type JobState int32

const (
	// Queued: admitted to the pending queue, not yet placed.
	Queued JobState = iota
	// Running: placed; resources reserved until Complete or Cancel.
	Running
	// Done: completed; resources released.
	Done
	// Cancelled: withdrawn while queued, or killed while running.
	Cancelled
)

// String renders the state for logs and API payloads.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Cancelled:
		return "cancelled"
	default:
		// Out-of-range defense only — every declared state has an arm
		// above. Naming the raw value beats a bare "invalid" in logs.
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// JobSpec describes one job to admit, independent of which layer
// submits it (the trace replay or the daemon's REST handlers).
type JobSpec struct {
	// Name is the client's idempotency handle: a resubmission under a
	// taken name returns the existing job instead of a duplicate ("" =
	// no deduplication).
	Name string `json:"name,omitempty"`
	// Program is the job's program, the key profiles are resolved by.
	Program string `json:"program,omitempty"`
	// BaseNodes is the node footprint at scale factor 1.
	BaseNodes int `json:"base_nodes"`
	// CoresPerNode is the per-node process count at scale 1.
	CoresPerNode int `json:"cores_per_node"`
	// RuntimeSec is the job's base (compact, exclusive) runtime; the
	// policy runtime model scales it for the chosen placement.
	RuntimeSec float64 `json:"runtime_sec"`
	// Alpha is the SNS slowdown threshold for demand estimation.
	Alpha float64 `json:"alpha,omitempty"`
	// Priority is the base queue priority (higher first).
	Priority int `json:"priority,omitempty"`
	// MemGBPerProc is the per-process main-memory demand (0 =
	// unaccounted).
	MemGBPerProc float64 `json:"mem_gb_per_proc,omitempty"`
	// MultiNode permits spreading over more nodes than BaseNodes.
	MultiNode bool `json:"multi_node"`
	// Intensive marks the job shared-resource intensive (TwoSlot).
	Intensive bool `json:"intensive,omitempty"`
	// Profile is the program's scale profile, consulted by SNS
	// placement and the policy runtime models. It is resolved from a
	// profiler.DB, never serialized: snapshots persist Program and
	// Restore re-resolves.
	Profile *profiler.Profile `json:"-"`
}

// Job is one admitted job's live record. Fields are written only by the
// core; callers treat placed node lists as read-only. The statefield
// lint pass proves every field round-trips through jobRecord (or is
// rebuilt on restore).
//
//sns:persist jobRecord
type Job struct {
	// ID is the core-assigned handle: dense, ascending in admission
	// order, and the queue's deterministic tie-break.
	ID   int     `json:"id"`
	Spec JobSpec `json:"spec"`
	// State moves only along the edges of the lifecycle table, through
	// Cluster.step, its one writer.
	State JobState `json:"state"`
	// SubmitSec/StartSec/FinishSec are core timestamps (simulated or
	// virtual seconds). StartSec/FinishSec are zero until placed;
	// FinishSec is the model-predicted completion once Running and the
	// actual completion once Done.
	SubmitSec float64 `json:"submit_sec"`
	StartSec  float64 `json:"start_sec"`
	FinishSec float64 `json:"finish_sec"`
	// Scale is the chosen scale factor; NodesUsed the placed footprint.
	Scale     int `json:"scale,omitempty"`
	NodesUsed int `json:"nodes_used,omitempty"`
	// Nodes is the placed node set, in the kernel's selection order.
	Nodes []int `json:"nodes,omitempty"`

	// req is the kernel request, rebuilt from Spec on restore.
	//
	//sns:derived buildReq
	req placement.Request
	// res0/uniform/cores are what a placed job returns on release: one
	// prototype reservation for every node, never exclusive — launch
	// resolves an exclusive take to the cores it found free. uniform
	// says res0.Cores holds on every node (the common footprint shape,
	// CE's dedicated nodes included), and the job mutates state through
	// one span call. Otherwise cores is the per-node count aligned with
	// Nodes — the plan's own vector, not a copy (TwoSlot's "full, full,
	// ..., remainder") — and the job mutates state through one span call
	// per run of equal counts (eachRun). release drops cores, so a
	// finished job keeps no per-node data beyond its node list; a
	// 32K-node replay takes ~19M node-slots, and a 48-byte record for
	// each was its dominant allocation and all of its resident growth.
	res0    placement.Reservation
	uniform bool
	cores   []int
}

// reservation rebuilds node i's share from the prototype. Memory follows
// the cores: MemGBPerProc for each core of the plan, which for an uneven
// job is its cores on the node.
func (j *Job) reservation(i int) placement.Reservation {
	r := j.res0
	if !j.uniform {
		r.Cores = j.cores[i]
		r.MemGB = float64(r.Cores) * j.Spec.MemGBPerProc
	}
	return r
}

// eachRun hands fn every maximal run of consecutive nodes that take the
// same cores, with the reservation they share: the whole node list of a
// uniform job, "full, ..., full" then the remainder of a TwoSlot plan.
func (j *Job) eachRun(fn func(ids []int, r placement.Reservation)) {
	if j.uniform {
		fn(j.Nodes, j.res0)
		return
	}
	for lo := 0; lo < len(j.Nodes); {
		hi := lo + 1
		for hi < len(j.Nodes) && j.cores[hi] == j.cores[lo] {
			hi++
		}
		fn(j.Nodes[lo:hi], j.reservation(lo))
		lo = hi
	}
}

// Wait returns submit-to-start (only meaningful once placed).
func (j *Job) Wait() float64 { return j.StartSec - j.SubmitSec }

// Stats is a point-in-time cluster summary.
type Stats struct {
	Nodes        int `json:"nodes"`
	Submitted    int `json:"submitted"`
	Queued       int `json:"queued"`
	Running      int `json:"running"`
	Done         int `json:"done"`
	Cancelled    int `json:"cancelled"`
	MaxFreeCores int `json:"max_free_cores"`
}
