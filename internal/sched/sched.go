// Package sched implements Uberun, the prototype batch scheduler, with the
// placement strategies the paper compares:
//
//   - CE (Compact-n-Exclusive): minimum node footprint, dedicated nodes —
//     the policy of SLURM/LSF/PBS and all top-10 supercomputers.
//   - CS (Compact-n-Share): node sharing by free cores, preferring the
//     lowest scale factor currently possible.
//   - SNS (Spread-n-Share): profile-guided automatic scaling plus
//     resource-compatible co-location with CAT way partitioning and
//     bandwidth accounting.
//   - TwoSlot: the related-work half-node-slot baseline.
//
// The placement searches and the age-based priority queue live in the
// shared kernel (internal/placement); this package adapts the cluster
// bookkeeping to the kernel's NodeView, keeps the free-core index in sync
// with every allocation, and drives the execution engine and node
// daemons. All policies share the same queue discipline, so measured
// differences come from the placement strategy alone — exactly the
// paper's experimental methodology (Section 6.2).
package sched

import (
	"fmt"
	"math"

	"spreadnshare/internal/app"
	"spreadnshare/internal/cluster"
	"spreadnshare/internal/core"
	"spreadnshare/internal/daemon"
	"spreadnshare/internal/exec"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/invariant"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/units"
)

// Policy selects the placement strategy. It is the shared kernel enum, so
// a policy value means the same thing to Uberun and the trace simulator.
type Policy = placement.Policy

const (
	// CE is Compact-n-Exclusive.
	CE = placement.CE
	// CS is Compact-n-Share.
	CS = placement.CS
	// SNS is Spread-n-Share.
	SNS = placement.SNS
	// TwoSlot is the related-work baseline (ClavisMO / Poncos style):
	// static half-node slots, at most one shared-resource-intensive
	// job per node, no scaling and no cache partitioning.
	TwoSlot = placement.TwoSlot
)

// Config tunes the scheduler.
type Config struct {
	// Policy is the placement strategy.
	Policy Policy
	// Beta weighs LLC occupancy in SNS node selection (default 2).
	Beta float64
	// DefaultAlpha is used for jobs submitted without a slowdown
	// threshold (the paper's default is 0.9).
	DefaultAlpha float64
	// AgeLimitSec is the wait beyond which a job blocks younger jobs
	// from overtaking it, preventing starvation of resource-hungry
	// jobs.
	AgeLimitSec float64
	// AgingPeriodSec is the wait that promotes a job by one priority
	// level, so long-delayed submissions climb past fresher
	// higher-priority ones (the paper's age-based priority ranking).
	AgingPeriodSec float64
	// MaxScale bounds the scale-factor search (default 8).
	MaxScale int
	// UseMBA enforces each SNS job's estimated bandwidth reservation
	// with Intel MBA throttling (requires node support). The paper's
	// testbed lacked MBA and saw jobs temporarily exceed their
	// "bandwidth allocation", one source of slowdown-threshold
	// violations (Section 6.2).
	UseMBA bool
	// ExclusiveSpread is an ablation switch: SNS still scales jobs to
	// their profiled best footprint but keeps nodes dedicated — the
	// "spread" half of Spread-n-Share without the "share" half. It
	// isolates how much of SNS's gain comes from each mechanism.
	ExclusiveSpread bool
	// NoGrouping is an ablation switch disabling the idle-core node
	// grouping of Section 4.4; placement scores feasible nodes across
	// the whole cluster directly.
	NoGrouping bool
	// PhasedExecution enables bandwidth-phase simulation in the
	// engine: programs burst above their profiled average demand,
	// stressing the scheduler's average-based accounting exactly as
	// the paper's Section 6.2 discussion describes.
	PhasedExecution bool
	// NoBackfill makes the queue strictly FIFO: a scheduling pass
	// stops at the first job it cannot place instead of letting
	// younger jobs slip past. An ablation of the queue discipline the
	// paper's age-limit mechanism relaxes.
	NoBackfill bool
}

// DefaultConfig returns the paper's settings for a policy.
func DefaultConfig(p Policy) Config {
	return Config{
		Policy:         p,
		Beta:           core.DefaultBeta,
		DefaultAlpha:   0.9,
		AgeLimitSec:    600,
		AgingPeriodSec: 120,
		MaxScale:       8,
	}
}

// JobSpec is one submission.
type JobSpec struct {
	// Program is the catalog name.
	Program string
	// Procs is the requested process count.
	Procs int
	// Alpha is the optional slowdown threshold; any value outside
	// (0, 1], NaN included, means the default.
	Alpha float64
	// Submit is the submission time in seconds: finite, and not before
	// the scheduler's clock.
	Submit float64
	// Priority ranks the job in the queue (higher first; default 0).
	// Aging promotes waiting jobs by one level per AgingPeriodSec.
	Priority int
}

// Scheduler drives one simulated scheduling run.
type Scheduler struct {
	cfg  Config
	spec hw.ClusterSpec
	cat  *app.Catalog
	db   *profiler.DB
	eng  *exec.Engine
	cl   *cluster.State

	idx    *placement.CoreIndex
	search *placement.Search
	queue  *placement.Pending
	byID   []*exec.Job // indexed by job id, which Submit hands out densely from 0

	done    []*exec.Job
	nextID  int
	drift   *profiler.DriftMonitor
	explore *explorerState
	daemons []*daemon.Daemon
	plans   []daemon.LaunchPlan
	// allocs is tryPlace's per-node allocation list, sized for the widest
	// possible job and reused across attempts: AllocateIO copies each
	// entry and retains nothing.
	allocs []cluster.NodeAlloc

	// auditPass, when set, runs the invariant auditor's scheduling-point
	// checks at the top of every schedule() call.
	auditPass func(now float64)
}

// clusterView adapts the cluster bookkeeping to the kernel's NodeView.
// Float readings delegate to the canonical job-ID-ordered summations, so
// kernel decisions are bit-identical to ones computed on cluster.State
// directly.
type clusterView struct{ cl *cluster.State }

func (v clusterView) UsedCores(id int) int        { return v.cl.Nodes[id].UsedCores() }
func (v clusterView) AllocWays(id int) units.Ways { return v.cl.Nodes[id].AllocWays() }
func (v clusterView) AllocBW(id int) units.GBps   { return v.cl.Nodes[id].AllocBW() }
func (v clusterView) FreeWays(id int) units.Ways  { return v.cl.Nodes[id].FreeWays() }
func (v clusterView) FreeBW(id int) units.GBps    { return v.cl.Nodes[id].FreeBW() }
func (v clusterView) FreeMem(id int) float64      { return v.cl.Nodes[id].FreeMem() }
func (v clusterView) FreeIO(id int) units.GBps    { return v.cl.Nodes[id].FreeIO() }

// LaunchPlans returns every node-local actuation issued so far: cpuset
// bindings, CAT masks, MBA caps, and framework launch commands, in issue
// order.
func (s *Scheduler) LaunchPlans() []daemon.LaunchPlan { return s.plans }

// AttachDriftMonitor enables sustained lightweight monitoring (Section
// 5.2): whenever a job happens to run exclusively — the conditions its
// profile was measured under — its final PMU reading is fed to the
// monitor, which can later flag the program for re-profiling.
func (s *Scheduler) AttachDriftMonitor(m *profiler.DriftMonitor) { s.drift = m }

// observeDrift records an exclusive job's metrics into the drift monitor.
func (s *Scheduler) observeDrift(j *exec.Job) {
	if s.drift == nil || !j.Exclusive || j.SpanNodes() != s.minFootprint(j.Procs) {
		return
	}
	m, err := s.eng.JobMetrics(j.ID)
	if err != nil {
		return
	}
	s.drift.Observe(j.Prog.Name, j.Procs, profiler.Reading{
		IPC: m.IPC.Float64(), BWPerNode: m.BWPerNode.Float64(), MissPct: m.MissPct,
	})
}

// New builds a scheduler over a fresh cluster. The profile database may be
// nil for CE/CS, which do not consult profiles.
func New(spec hw.ClusterSpec, cat *app.Catalog, db *profiler.DB, cfg Config) (*Scheduler, error) {
	if cfg.Policy == SNS && db == nil {
		return nil, fmt.Errorf("sched: SNS requires a profile database")
	}
	if cfg.Beta == 0 {
		cfg.Beta = core.DefaultBeta
	}
	if cfg.DefaultAlpha == 0 {
		cfg.DefaultAlpha = 0.9
	}
	if cfg.MaxScale == 0 {
		cfg.MaxScale = 8
	}
	if cfg.AgeLimitSec == 0 {
		cfg.AgeLimitSec = 600
	}
	if cfg.AgingPeriodSec == 0 {
		cfg.AgingPeriodSec = 120
	}
	eng, err := exec.New(spec)
	if err != nil {
		return nil, err
	}
	eng.PhasesOn = cfg.PhasedExecution
	cl, err := cluster.New(spec)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg: cfg, spec: spec, cat: cat, db: db, eng: eng, cl: cl,
		idx: placement.NewCoreIndex(spec.Nodes, spec.Node.Cores.Int()),
		queue: &placement.Pending{
			AgingPeriodSec: cfg.AgingPeriodSec,
			AgeLimitSec:    cfg.AgeLimitSec,
			NoBackfill:     cfg.NoBackfill,
		},
		daemons: make([]*daemon.Daemon, spec.Nodes),
		allocs:  make([]cluster.NodeAlloc, 0, spec.Nodes),
	}
	s.search = &placement.Search{
		View:            clusterView{cl},
		Idx:             s.idx,
		Spec:            spec.Node,
		Nodes:           spec.Nodes,
		Beta:            cfg.Beta,
		MaxScale:        cfg.MaxScale,
		NoGrouping:      cfg.NoGrouping,
		ExclusiveSpread: cfg.ExclusiveSpread,
		HasIntensive:    s.nodeHasIntensive,
		// No score cache: it pays on clusters of thousands of nodes. On a
		// testbed of a few, building one per run and invalidating it on
		// every allocation costs more than the bucket scans FindDemand
		// draws candidates from without one, in the same loop and with
		// bit-identical answers.
	}
	for i := range s.daemons {
		s.daemons[i] = daemon.New(i, spec.Node)
	}
	eng.OnFinish(func(j *exec.Job) {
		if j.State == exec.Done {
			// Cancelled runs yield no usable measurements.
			if s.explore != nil {
				s.finishTrial(j)
			}
			s.observeDrift(j)
		} else if s.explore != nil {
			// A cancelled trial is abandoned; the next submission
			// retries the same scale.
			delete(s.explore.trials, j.ID)
		}
		s.syncIndex(s.cl.Release(j.ID))
		for _, n := range j.Nodes {
			if err := s.daemons[n].Release(j.ID); err != nil {
				panic(fmt.Sprintf("sched: daemon release: %v", err))
			}
		}
		s.done = append(s.done, j)
		s.schedule()
	})
	if invariant.Active() {
		aud := invariant.New("sched")
		// After every recompute: engine-internal conservation,
		// allocation-free so the zero-alloc hot path stays intact.
		eng.SetAudit(func() { aud.CheckEngine(eng) })
		// At every scheduling point: bookkeeping, index, and the
		// engine/bookkeeping agreement (both sides settled here).
		s.auditPass = func(now float64) {
			aud.ObserveQueue(now, s.queue)
			if !aud.Begin() {
				return
			}
			aud.CheckCluster(s.cl)
			aud.CheckIndex(s.idx)
			aud.CheckIndexAgainstCluster(s.idx, s.cl)
			aud.CheckEngineAgainstCluster(eng, s.cl)
			aud.CheckScoreCache(s.search)
		}
	}
	return s, nil
}

// syncIndex refreshes the free-core index entries of the given nodes from
// the cluster bookkeeping, after every allocation or release.
func (s *Scheduler) syncIndex(nodes []int) {
	for _, id := range nodes {
		s.idx.Update(id, s.cl.Nodes[id].FreeCores())
	}
}

// Engine exposes the underlying execution engine (for monitoring hooks).
func (s *Scheduler) Engine() *exec.Engine { return s.eng }

// Cluster exposes the resource bookkeeping (read-only use intended).
func (s *Scheduler) Cluster() *cluster.State { return s.cl }

// Submit registers a job arriving at spec.Submit.
func (s *Scheduler) Submit(js JobSpec) error {
	prog, err := s.cat.Lookup(js.Program)
	if err != nil {
		return err
	}
	if js.Procs <= 0 {
		return fmt.Errorf("sched: job needs processes, got %d", js.Procs)
	}
	if !prog.MultiNode && js.Procs > s.spec.Node.Cores.Int() {
		return fmt.Errorf("sched: %s is single-node but wants %d processes", js.Program, js.Procs)
	}
	if js.Procs > s.spec.TotalCores() {
		return fmt.Errorf("sched: %d processes exceed cluster capacity %d", js.Procs, s.spec.TotalCores())
	}
	// The clock starts at 0, so this refuses negative times and NaN.
	if now := s.eng.Now(); !(js.Submit >= now) || math.IsInf(js.Submit, 1) {
		return fmt.Errorf("sched: submit time %g is not a finite time at or after %g", js.Submit, now)
	}
	alpha := js.Alpha
	if !(alpha > 0 && alpha <= 1) {
		alpha = s.cfg.DefaultAlpha
	}
	id := s.nextID
	s.nextID++
	j := &exec.Job{
		ID:     id,
		Prog:   prog,
		Procs:  js.Procs,
		Alpha:  alpha,
		Submit: js.Submit,
	}
	s.byID = append(s.byID, j)
	priority := js.Priority
	s.eng.Queue().At(js.Submit, func() {
		// The submission index doubles as the rank tie-breaker (FIFO).
		s.queue.Push(id, j.Submit, priority, id)
		s.schedule()
	})
	return nil
}

// Run drives the simulation to completion and returns every finished job
// in completion order. It fails if jobs remain unplaceable when the
// cluster drains (which indicates an impossible request).
func (s *Scheduler) Run() ([]*exec.Job, error) {
	s.eng.Run(0)
	if s.queue.Len() > 0 {
		first, _ := s.queue.First()
		j := s.byID[first.ID]
		return s.done, fmt.Errorf("sched: %d jobs never placed (first: %s/%d procs)",
			s.queue.Len(), j.Prog.Name, j.Procs)
	}
	return s.done, nil
}

// schedule is the scheduling pass run at every scheduling point: job
// arrival and job completion. The kernel queue scans jobs in age-based
// priority order; a job past the age limit blocks younger jobs from
// overtaking it.
func (s *Scheduler) schedule() {
	now := s.eng.Now()
	if s.auditPass != nil {
		s.auditPass(now)
	}
	s.queue.Schedule(now, func(id int) bool {
		return s.tryPlace(s.byID[id])
	})
}

// tryPlace attempts to place and launch one job under the configured
// policy.
func (s *Scheduler) tryPlace(j *exec.Job) bool {
	pl, ok := s.place(j)
	if !ok {
		return false
	}
	s.allocs = s.allocs[:0]
	for i, n := range pl.nodes {
		s.allocs = append(s.allocs, cluster.NodeAlloc{
			Node:  n,
			Cores: pl.cores[i],
			MemGB: float64(pl.cores[i]) * j.Prog.MemGBPerProc,
		})
	}
	if err := s.cl.AllocateIO(j.ID, s.allocs, pl.ways, pl.bw, pl.ioBW, pl.exclusive); err != nil {
		// Placement search and bookkeeping disagree: a programming
		// error worth failing loudly on.
		panic(fmt.Sprintf("sched: placement rejected by bookkeeping: %v", err))
	}
	s.syncIndex(pl.nodes)
	j.Nodes = pl.nodes
	j.CoresByNode = pl.cores
	j.Ways = pl.ways
	j.BWCap = pl.bwCap
	j.Exclusive = pl.exclusive
	// Per-node actuation: bind cores, program CAT and MBA; the plan
	// renders the framework launch line when asked. The daemons double as
	// an independent consistency check on the placement search.
	for i, n := range pl.nodes {
		plan, err := s.daemons[n].Actuate(j.ID, j.Prog, pl.cores[i], pl.ways.Int(), pl.bwCap.Float64())
		if err != nil {
			panic(fmt.Sprintf("sched: daemon rejected placement: %v", err))
		}
		s.plans = append(s.plans, plan)
	}
	if err := s.eng.Launch(j); err != nil {
		panic(fmt.Sprintf("sched: engine rejected placement: %v", err))
	}
	if pl.trialK > 0 && s.explore != nil {
		s.startTrialInstrumentation(j, pl.trialK)
	}
	return true
}

// decision is a policy's placement choice in the scheduler's terms.
type decision struct {
	nodes     []int
	cores     []int
	ways      units.Ways
	bw        units.GBps
	ioBW      units.GBps
	bwCap     units.GBps
	exclusive bool
	// trialK marks a piggy-backed profiling trial at that scale.
	trialK int
}

// fromPlan converts a kernel plan, reporting false when the kernel found
// no placement.
func fromPlan(pl *placement.Plan) (decision, bool) {
	if pl == nil {
		return decision{}, false
	}
	return decision{
		nodes: pl.Nodes, cores: pl.Cores,
		ways: pl.Ways, bw: pl.BW, ioBW: pl.IOBW,
		exclusive: pl.Exclusive,
	}, true
}

// minFootprint returns the CE node count for a process count.
func (s *Scheduler) minFootprint(procs int) int {
	return (procs + s.spec.Node.Cores.Int() - 1) / s.spec.Node.Cores.Int()
}

// scaleRunnable reports whether the program can run spread over n nodes.
func scaleRunnable(prog *app.Model, procs, n int) bool {
	return placement.ScaleRunnable(procs, n, prog.MultiNode, prog.PowerOf2)
}

// request translates a job into the kernel's request shape.
func (s *Scheduler) request(j *exec.Job) placement.Request {
	return placement.Request{
		Procs:        j.Procs,
		BaseNodes:    s.minFootprint(j.Procs),
		MemGBPerProc: j.Prog.MemGBPerProc,
		Alpha:        j.Alpha,
		MultiNode:    j.Prog.MultiNode,
		PowerOf2:     j.Prog.PowerOf2,
	}
}

// place runs the configured policy's kernel search, reporting false when
// the job cannot be placed right now.
func (s *Scheduler) place(j *exec.Job) (decision, bool) {
	req := s.request(j)
	switch s.cfg.Policy {
	case CE, CS:
		return fromPlan(s.search.Place(s.cfg.Policy, req))
	case SNS:
		return s.placeSNS(j, req)
	case TwoSlot:
		req.Intensive = s.bwIntensive(j)
		return fromPlan(s.search.Place(TwoSlot, req))
	}
	return decision{}, false
}

// placeSNS looks up the job's profile and runs the kernel's demand→scale
// search (the Figure 11 process). Jobs without a profile fall back to
// CS-style placement (their first runs double as profiling runs in a
// production deployment) — or, with piggy-backed profiling attached,
// become the program's next exploration trial. The database is read on
// every attempt, so a profile a trial stores mid-run guides the next one.
func (s *Scheduler) placeSNS(j *exec.Job, req placement.Request) (decision, bool) {
	prof, profiled := s.db.Get(j.Prog.Name, j.Procs)
	if !profiled {
		if s.explore != nil {
			if d, ok, trial := s.placeTrial(j); trial {
				return d, ok
			}
		}
		return fromPlan(s.search.Place(CS, req))
	}
	req.Profile = prof
	pl := s.search.Place(SNS, req)
	d, ok := fromPlan(pl)
	if ok && s.cfg.UseMBA && !pl.Exclusive {
		d.bwCap = s.spec.Node.MBACap(pl.BW)
	}
	return d, ok
}
