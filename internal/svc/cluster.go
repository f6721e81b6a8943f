package svc

import (
	"errors"
	"fmt"
	"math"

	"spreadnshare/internal/invariant"
	"spreadnshare/internal/placement"
)

// ErrDuplicate is returned by Submit when the spec's Name is already
// taken; the accompanying *Job is the existing record, so idempotent
// clients treat it as success.
var ErrDuplicate = errors.New("svc: job name already submitted")

// Cluster is the live scheduler core: one cluster's mutable online
// state. Not safe for concurrent use — confine it to one goroutine (the
// daemon's scheduler loop) or one event loop (the simulators). The
// confine lint pass enforces this: every method call on a Cluster must
// come from a context proven to run on its owner goroutine.
//
// The statefield lint pass proves every field below round-trips through
// the snapshot mirror or is rebuilt on the restore path.
//
//sns:owner core
//sns:persist snapshot
type Cluster struct {
	cfg     Config
	state   *placement.SimState
	pending *placement.Pending
	jobs    []*Job
	// search wraps state; New rebuilds it on construction and restore.
	//
	//sns:derived New
	search *placement.Search
	// byName and counts are indexes over jobs; Restore rebuilds them
	// record by record.
	//
	//sns:derived Restore
	byName map[string]int
	//sns:derived Restore
	counts [4]int // jobs per JobState

	//sns:derived New
	audit func(now float64)
	//lint:statefield round-local scratch; the next ScheduleRound rebuilds it from zero
	placed []*Job // ScheduleRound result scratch
}

// New builds an all-idle live cluster core. Construction runs before
// the core has an owner goroutine.
//
//sns:ownerinit
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("svc: cluster needs nodes, got %d", cfg.Nodes)
	}
	if err := cfg.Node.Validate(); err != nil {
		return nil, fmt.Errorf("svc: bad node spec: %w", err)
	}
	state := placement.NewSimState(cfg.Node, cfg.Nodes)
	// Only SNS calls FindDemand, the one reader of the score cache; under
	// CE, CS and TwoSlot every mutation would pay to invalidate it for
	// nothing.
	var cache *placement.ScoreCache
	if cfg.Policy == placement.SNS {
		cache = placement.NewScoreCache(cfg.Nodes, cfg.Node.Cores.Int())
		state.SetOnChange(cache.Invalidate)
		state.SetOnSpanChange(cache.InvalidateSpan)
	}
	c := &Cluster{
		cfg:     cfg,
		state:   state,
		pending: &placement.Pending{AgingPeriodSec: cfg.AgingPeriodSec, ScanDepth: cfg.ScanDepth},
		byName:  make(map[string]int),
	}
	c.search = &placement.Search{
		View:         state,
		Idx:          state.Index(),
		Spec:         cfg.Node,
		Nodes:        cfg.Nodes,
		MaxScale:     cfg.MaxScale,
		HasIntensive: state.HasIntensive,
		Cache:        cache,
	}
	if invariant.Active() {
		label := cfg.AuditLabel
		if label == "" {
			label = "svc"
		}
		aud := invariant.New(label)
		// A full SimState sweep is O(nodes); on paper-scale clusters
		// (4K-32K nodes) sample every 64th scheduling point so the
		// audit does not dominate the scheduling it is checking.
		if cfg.Nodes > 1024 {
			aud.Stride = 64
		}
		c.audit = func(now float64) {
			aud.ObserveQueue(now, c.pending)
			if aud.Begin() {
				aud.CheckSimState(c.state)
				aud.CheckScoreCache(c.search)
			}
		}
	}
	return c, nil
}

// Close has nothing to release: the core holds no goroutines, pools or
// files. The method stays because every owner (the daemon, the replays,
// the benchmark) pairs New/Restore with a deferred Close.
func (c *Cluster) Close() {}

// Config returns the core's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Len returns the cluster size in nodes.
func (c *Cluster) Len() int { return c.cfg.Nodes }

// Submitted returns how many jobs the core has ever admitted.
func (c *Cluster) Submitted() int { return len(c.jobs) }

// QueuedLen returns the number of jobs waiting for placement.
func (c *Cluster) QueuedLen() int { return c.pending.Len() }

// MaxFreeCores returns the largest free-core count on any node — the
// capacity bound quoted by stuck-placement diagnostics.
func (c *Cluster) MaxFreeCores() int { return c.state.MaxFreeCores() }

// Job returns the job with the given core ID.
func (c *Cluster) Job(id int) (*Job, bool) {
	if id < 0 || id >= len(c.jobs) {
		return nil, false
	}
	return c.jobs[id], true
}

// JobByName returns the job submitted under the given dedup name.
func (c *Cluster) JobByName(name string) (*Job, bool) {
	id, ok := c.byName[name]
	if !ok {
		return nil, false
	}
	return c.jobs[id], true
}

// Each visits every admitted job in ID order.
func (c *Cluster) Each(fn func(*Job)) {
	for _, j := range c.jobs {
		fn(j)
	}
}

// FirstQueued returns the highest-ranked stuck job as of the last
// scheduling round, or false when nothing is queued.
func (c *Cluster) FirstQueued() (*Job, bool) {
	it, ok := c.pending.First()
	if !ok {
		return nil, false
	}
	return c.jobs[it.ID], true
}

// Stats summarizes the core's current occupancy.
func (c *Cluster) Stats() Stats {
	return Stats{
		Nodes:        c.cfg.Nodes,
		Submitted:    len(c.jobs),
		Queued:       c.counts[Queued],
		Running:      c.counts[Running],
		Done:         c.counts[Done],
		Cancelled:    c.counts[Cancelled],
		MaxFreeCores: c.state.MaxFreeCores(),
	}
}

// Submit admits one job into the pending queue at time now and returns
// its record. It does not run a placement round: callers batch any
// number of Submits at one timestamp and then call ScheduleRound once —
// the batched-admission invariant guarantees the same placements as a
// round per Submit. A spec whose Name is already taken returns the
// existing job and ErrDuplicate.
func (c *Cluster) Submit(spec JobSpec, now float64) (*Job, error) {
	if spec.Name != "" {
		if id, ok := c.byName[spec.Name]; ok {
			return c.jobs[id], ErrDuplicate
		}
	}
	if spec.BaseNodes <= 0 || spec.BaseNodes > c.cfg.Nodes {
		return nil, fmt.Errorf("svc: job needs %d nodes on a %d-node cluster", spec.BaseNodes, c.cfg.Nodes)
	}
	if spec.CoresPerNode <= 0 || spec.CoresPerNode > c.cfg.Node.Cores.Int() {
		return nil, fmt.Errorf("svc: job wants %d cores per node, nodes have %d", spec.CoresPerNode, c.cfg.Node.Cores.Int())
	}
	// Written so NaN fails it too: a NaN or +Inf run time never
	// finishes and never releases its nodes.
	if !(spec.RuntimeSec >= 0) || math.IsInf(spec.RuntimeSec, 1) {
		return nil, fmt.Errorf("svc: runtime %g is not a finite, non-negative number of seconds", spec.RuntimeSec)
	}
	// Each node reserves its cores' worth of memory. Written so NaN fails
	// too; +Inf fails as more than a node holds.
	if mem := float64(spec.CoresPerNode) * spec.MemGBPerProc; !(spec.MemGBPerProc >= 0) || mem > c.cfg.Node.MemoryGB {
		return nil, fmt.Errorf("svc: job wants %g GB per process, %g GB per node; nodes have %g GB", spec.MemGBPerProc, mem, c.cfg.Node.MemoryGB)
	}
	j := &Job{
		ID:        len(c.jobs),
		Spec:      spec,
		State:     Queued,
		SubmitSec: now,
	}
	j.req = c.buildReq(&j.Spec)
	c.jobs = append(c.jobs, j)
	if spec.Name != "" {
		c.byName[spec.Name] = j.ID
	}
	c.counts[Queued]++
	// The job's dense ID doubles as the queue's deterministic tie-break
	// (admission order).
	c.pending.Push(j.ID, now, spec.Priority, j.ID)
	return j, nil
}

// buildReq translates a spec into the kernel request the configured
// policy consumes: SNS reads the scale profile, TwoSlot the intensive
// classification, every policy the footprint and alpha.
func (c *Cluster) buildReq(spec *JobSpec) placement.Request {
	req := placement.Request{
		BaseNodes:    spec.BaseNodes,
		CoresPerNode: spec.CoresPerNode,
		MemGBPerProc: spec.MemGBPerProc,
		Alpha:        spec.Alpha,
		MultiNode:    spec.MultiNode,
	}
	switch c.cfg.Policy {
	case placement.SNS:
		req.Profile = spec.Profile
	case placement.TwoSlot:
		req.Intensive = spec.Intensive
	case placement.CE, placement.CS:
		// Footprint-only policies: the base request already carries
		// everything they read.
	}
	return req
}

// ScheduleRound runs one admission round at time now: rank the pending
// queue, try placements in rank order (bounded backfill per ScanDepth),
// and launch every job the kernel accepts, predicting its completion
// with the runtime model. It returns the jobs placed this round; the
// slice is reused by the next round, so callers consume it immediately.
func (c *Cluster) ScheduleRound(now float64, model RuntimeModel) []*Job {
	if c.audit != nil {
		c.audit(now)
	}
	c.placed = c.placed[:0]
	c.pending.Schedule(now, func(id int) bool {
		j := c.jobs[id]
		if j.State != Queued {
			// The pending queue only holds queued jobs; defend the
			// invariant instead of assuming it.
			return false
		}
		pl := c.search.Place(c.cfg.Policy, j.req)
		if pl == nil {
			return false
		}
		c.launch(j, pl, now, model)
		c.placed = append(c.placed, j)
		return true
	})
	return c.placed
}

// launch reserves a plan's resources and moves the job to Running;
// callers must already have checked the job queued.
func (c *Cluster) launch(j *Job, pl *placement.Plan, now float64, model RuntimeModel) {
	j.res0 = placement.Reservation{
		Ways:      pl.Ways,
		BW:        pl.BW,
		IOBW:      pl.IOBW,
		Intensive: j.req.Intensive,
	}
	j.res0.Cores, j.cores = c.planCores(pl)
	j.uniform = j.cores == nil
	if j.uniform {
		j.res0.MemGB = float64(pl.Cores[0]) * j.Spec.MemGBPerProc
	}
	j.Nodes = pl.Nodes
	// One span mutation (and one cache notification) per run of nodes
	// that take the same cores: the whole node list for a uniform job.
	j.eachRun(c.state.ReserveSpan)
	j.StartSec = now
	j.FinishSec = now + model(j, pl)
	j.Scale = pl.K
	j.NodesUsed = len(pl.Nodes)
	c.step(j, Running)
}

// planCores returns what a plan takes per node: one count when it is
// the same on every node, else the per-node vector. An exclusive plan
// takes each node's free cores as the index reports them now — the
// value a per-node exclusive Reserve would resolve to — and those are
// equal whenever the nodes came from Search.Idle, which only draws on
// the fully-free bucket; so CE, like any even footprint, is one
// prototype over a span. An uneven non-exclusive plan keeps pl.Cores
// itself.
func (c *Cluster) planCores(pl *placement.Plan) (int, []int) {
	if !pl.Exclusive {
		for _, n := range pl.Cores[1:] {
			if n != pl.Cores[0] {
				return 0, pl.Cores
			}
		}
		return pl.Cores[0], nil
	}
	idx := c.state.Index()
	first := idx.Free(pl.Nodes[0])
	for _, id := range pl.Nodes[1:] {
		if idx.Free(id) != first {
			cores := make([]int, len(pl.Nodes))
			for i, id := range pl.Nodes {
				cores[i] = idx.Free(id)
			}
			return 0, cores
		}
	}
	return first, nil
}

// Complete releases a running job's resources and marks it Done. The
// caller owns the clock, so it also decides whether now is the job's
// predicted FinishSec (simulators) or an observed completion (daemon);
// the record keeps the actual value.
func (c *Cluster) Complete(id int, now float64) error {
	j, ok := c.Job(id)
	if !ok {
		return fmt.Errorf("svc: complete: unknown job %d", id)
	}
	if j.State != Running {
		return fmt.Errorf("svc: complete: job %d is %s, not running", id, j.State)
	}
	c.release(j)
	j.FinishSec = now
	c.step(j, Done)
	return nil
}

// Cancel withdraws a queued job or kills a running one at time now.
// Done and already-cancelled jobs cannot be cancelled.
func (c *Cluster) Cancel(id int, now float64) error {
	j, ok := c.Job(id)
	if !ok {
		return fmt.Errorf("svc: cancel: unknown job %d", id)
	}
	switch j.State {
	case Queued:
		c.pending.Remove(id)
	case Running:
		c.release(j)
		j.FinishSec = now
	case Done, Cancelled:
		// Naming the terminal states (instead of a blanket default)
		// keeps this switch exhaustive over the lifecycle.
		return fmt.Errorf("svc: cancel: job %d already %s", id, j.State)
	default:
		return fmt.Errorf("svc: cancel: job %d in invalid state %d", id, int(j.State))
	}
	c.step(j, Cancelled)
	return nil
}

// release returns a job's reservations to the cluster and drops its
// core vector: a Done or Cancelled job holds no per-node data.
func (c *Cluster) release(j *Job) {
	j.eachRun(c.state.ReleaseSpan)
	j.cores = nil
}

// lifecycle[from][to] holds the edges a job may take; a new edge is one
// cell here.
var lifecycle = [4][4]bool{
	Queued:  {Running: true, Cancelled: true},
	Running: {Done: true, Cancelled: true},
}

// step is the only writer of Job.State after admission. Its callers
// have checked the state they are leaving and answer a wrong one with
// an error; the panic means one of them stopped checking.
func (c *Cluster) step(j *Job, to JobState) {
	if !lifecycle[j.State][to] {
		panic(fmt.Sprintf("svc: job %d: illegal transition %s -> %s", j.ID, j.State, to))
	}
	c.counts[j.State]--
	c.counts[to]++
	j.State = to
}
