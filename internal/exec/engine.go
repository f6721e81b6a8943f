package exec

import (
	"fmt"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/interconnect"
	"spreadnshare/internal/pmu"
	"spreadnshare/internal/sim"
	"spreadnshare/internal/units"
)

// resident is one job's presence on one node: the job plus its cached
// core count there and the index of that node in the job's placement
// (so per-node results can be written straight into job.shares without
// any lookup).
type resident struct {
	job   *Job
	cores int // cores the job holds on this node
	slot  int // index into job.Nodes / job.shares for this node
}

// Engine executes jobs on a simulated cluster.
//
// The engine is single-goroutine: one simulation drives one engine, and
// all scratch state below is reused across events under that invariant.
// Cross-sequence parallelism lives a level up (one engine per sequence,
// as in experiments.RunSequences).
type Engine struct {
	spec     hw.ClusterSpec
	net      interconnect.Model
	q        *sim.Queue
	nodes    [][]resident // per node, residents sorted by job ID
	jobs     map[int]*Job
	onFinish []func(*Job)

	// Scratch buffers, reused by every recompute so the steady-state
	// event loop performs no heap allocations. Each is reset (not
	// reallocated) at the start of the pass that uses it.
	dirtyMark []bool // per-node membership flag for dirtyList
	dirtyList []int  // nodes whose population or allocation changed
	affected  []*Job // jobs touching a dirty node, sorted by ID
	epoch     uint64 // recompute stamp for affected-job dedup
	scratch   resolveScratch

	// audit, when set, runs after every recompute — the invariant
	// auditor's hook point. It must not mutate engine state and must
	// not allocate: the recompute path is pinned at zero steady-state
	// allocations by alloc_test.go, auditor included.
	audit func()

	// PhasesOn enables program bandwidth-phase simulation: jobs whose
	// model declares a PhaseAmp alternate between high- and
	// low-bandwidth phases, temporarily exceeding their profiled
	// average demand. Set before launching jobs. Off by default so
	// calibration runs reproduce the profiled averages exactly.
	PhasesOn bool
}

// resolveScratch holds resolveNode's and commInflation's per-call
// working arrays, sized to the largest resident population seen.
type resolveScratch struct {
	ways       []float64
	demands    []float64
	rawDemands []float64
	effWays    []float64
	ipcs       []float64
	missPcts   []float64
	ioDemands  []float64
	grants     []float64
	ioGrants   []float64
	order      []int // water-fill index scratch
	unmanaged  []int // resident indices without a CAT partition
	giveaway   []int // resident indices eligible for free-pool shares
	utils      []float64
}

// New creates an engine for the given cluster.
func New(spec hw.ClusterSpec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		spec:      spec,
		net:       interconnect.Model{BandwidthGB: spec.Node.NICBandwidth.Float64(), LatencyUS: spec.Node.NICLatencyUS},
		q:         &sim.Queue{},
		nodes:     make([][]resident, spec.Nodes),
		jobs:      make(map[int]*Job),
		dirtyMark: make([]bool, spec.Nodes),
	}
	return e, nil
}

// Spec returns the cluster spec.
func (e *Engine) Spec() hw.ClusterSpec { return e.spec }

// Queue exposes the event queue so schedulers can add arrival or
// monitoring events.
func (e *Engine) Queue() *sim.Queue { return e.q }

// Now returns the simulation clock.
func (e *Engine) Now() float64 { return e.q.Now() }

// OnFinish registers a callback fired when any job completes, after its
// resources are released (so schedulers see the freed capacity).
func (e *Engine) OnFinish(fn func(*Job)) { e.onFinish = append(e.onFinish, fn) }

// Job returns a job by id.
func (e *Engine) Job(id int) (*Job, bool) {
	j, ok := e.jobs[id]
	return j, ok
}

// insertResident places r into node n's resident list, keeping it
// sorted by job ID.
func (e *Engine) insertResident(n int, r resident) {
	s := e.nodes[n]
	i := len(s)
	for i > 0 && s[i-1].job.ID > r.job.ID {
		i--
	}
	s = append(s, resident{})
	copy(s[i+1:], s[i:])
	s[i] = r
	e.nodes[n] = s
}

// removeResident deletes job id from node n's resident list with a
// shift, preserving order.
func (e *Engine) removeResident(n, id int) {
	s := e.nodes[n]
	for i := range s {
		if s[i].job.ID == id {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = resident{}
			e.nodes[n] = s[:len(s)-1]
			return
		}
	}
}

// markDirty adds node n to the pending recompute set.
//
//sns:hotpath
func (e *Engine) markDirty(n int) {
	if !e.dirtyMark[n] {
		e.dirtyMark[n] = true
		//lint:allocfree dirty list grows to node count once, then stays at capacity
		e.dirtyList = append(e.dirtyList, n)
	}
}

// Launch starts a job at the current time with the placement recorded in
// its Nodes/CoresByNode/Ways fields.
func (e *Engine) Launch(j *Job) error {
	if j.State != Pending {
		return fmt.Errorf("exec: job %d is %v, not pending", j.ID, j.State)
	}
	if _, ok := e.jobs[j.ID]; ok {
		return fmt.Errorf("exec: duplicate job id %d", j.ID)
	}
	if j.Prog == nil {
		return fmt.Errorf("exec: job %d has no program", j.ID)
	}
	if len(j.Nodes) == 0 || len(j.Nodes) != len(j.CoresByNode) {
		return fmt.Errorf("exec: job %d placement malformed (%d nodes, %d core entries)",
			j.ID, len(j.Nodes), len(j.CoresByNode))
	}
	if j.TotalCores() != j.Procs {
		return fmt.Errorf("exec: job %d places %d cores for %d processes", j.ID, j.TotalCores(), j.Procs)
	}
	if !j.Prog.MultiNode && len(j.Nodes) > 1 {
		return fmt.Errorf("exec: job %d program %s is single-node but placed on %d nodes",
			j.ID, j.Prog.Name, len(j.Nodes))
	}
	for i, n := range j.Nodes {
		if n < 0 || n >= e.spec.Nodes {
			return fmt.Errorf("exec: job %d node %d out of range", j.ID, n)
		}
		if j.CoresByNode[i] <= 0 {
			return fmt.Errorf("exec: job %d has %d cores on node %d", j.ID, j.CoresByNode[i], n)
		}
		used := j.CoresByNode[i]
		ways := j.Ways
		for _, r := range e.nodes[n] {
			used += r.cores
			ways += r.job.Ways
		}
		if used > e.spec.Node.Cores.Int() {
			return fmt.Errorf("exec: node %d oversubscribed: %d cores > %d", n, used, e.spec.Node.Cores)
		}
		if ways > e.spec.Node.LLCWays {
			return fmt.Errorf("exec: node %d LLC oversubscribed: %d ways > %d", n, ways, e.spec.Node.LLCWays)
		}
	}
	j.State = Running
	j.Start = e.q.Now()
	j.lastT = j.Start
	j.remaining = 1
	j.work = j.Prog.WorkPerProcess(j.SpanNodes())
	j.comm = j.Prog.CommSeconds(j.SpanNodes())
	j.shares = make([]nodeShare, len(j.Nodes))
	j.finishFn = func() { e.finish(j) }
	e.jobs[j.ID] = j
	j.phaseMul = 1
	for i, n := range j.Nodes {
		e.insertResident(n, resident{job: j, cores: j.CoresByNode[i], slot: i})
		e.markDirty(n)
	}
	if e.PhasesOn && j.Prog.PhaseAmp > 0 && j.Prog.PhasePeriodSec > 0 {
		j.phaseMul = 1 + j.Prog.PhaseAmp
		j.flipFn = func() { e.flipPhase(j) }
		e.q.At(e.q.Now()+j.Prog.PhasePeriodSec, j.flipFn)
	}
	e.recompute()
	return nil
}

// flipPhase toggles the job between its high- and low-bandwidth phases
// and arranges the next transition. The flip closure is created once at
// launch, so steady-state phase simulation allocates nothing.
//
//sns:hotpath
func (e *Engine) flipPhase(j *Job) {
	if j.State != Running {
		return
	}
	if j.phaseMul > 1 {
		j.phaseMul = 1 - j.Prog.PhaseAmp
	} else {
		j.phaseMul = 1 + j.Prog.PhaseAmp
	}
	for _, n := range j.Nodes {
		e.markDirty(n)
	}
	e.recompute()
	e.q.At(e.q.Now()+j.Prog.PhasePeriodSec, j.flipFn)
}

// SetJobWays forces the node-level LLC allocation of a running job — the
// profiler's CAT manipulation. Passing 0 restores the launch allocation.
func (e *Engine) SetJobWays(id int, ways units.Ways) error {
	j, ok := e.jobs[id]
	if !ok || j.State != Running {
		return fmt.Errorf("exec: job %d not running", id)
	}
	if ways < 0 || ways > e.spec.Node.LLCWays {
		return fmt.Errorf("exec: way override %d out of range", ways)
	}
	j.wayOverride = ways
	for _, n := range j.Nodes {
		e.markDirty(n)
	}
	e.recompute()
	return nil
}

// JobMetrics returns the job's instantaneous simulated PMU reading.
func (e *Engine) JobMetrics(id int) (pmu.Metrics, error) {
	j, ok := e.jobs[id]
	if !ok {
		return pmu.Metrics{}, fmt.Errorf("exec: unknown job %d", id)
	}
	return j.metrics, nil
}

// JobCounters returns cumulative counters, advanced to the current time.
func (e *Engine) JobCounters(id int) (pmu.Counters, error) {
	j, ok := e.jobs[id]
	if !ok {
		return pmu.Counters{}, fmt.Errorf("exec: unknown job %d", id)
	}
	if j.State == Running {
		e.advance(j)
	}
	return j.counters, nil
}

// NodeBandwidth returns the instantaneous achieved memory bandwidth on a
// node (traffic actually flowing, weighted by each job's compute
// fraction). Residents are summed in job-ID order, so the reading is
// bit-reproducible across runs.
func (e *Engine) NodeBandwidth(n int) units.GBps {
	bw := 0.0
	for _, r := range e.nodes[n] {
		bw += r.job.shares[r.slot].grant.Float64() * r.job.computeFrac
	}
	return units.GBpsOf(bw)
}

// NodeActiveCores returns the number of occupied cores on a node.
func (e *Engine) NodeActiveCores(n int) int {
	c := 0
	for _, r := range e.nodes[n] {
		c += r.cores
	}
	return c
}

// NodeAllocWays returns the summed CAT way allocation of the node's
// residents (launch-time allocations; profiler way-overrides are
// deliberate capacity violations and do not count).
func (e *Engine) NodeAllocWays(n int) units.Ways {
	w := units.Ways(0)
	for _, r := range e.nodes[n] {
		w += r.job.Ways
	}
	return w
}

// NodeResidentsConsistent reports whether the node's resident list
// holds strictly ID-ascending entries with positive core counts and
// placement slots that point back at this node — the ordering invariant
// every deterministic recompute pass relies on. It takes no callback so
// the invariant auditor can call it allocation-free from the recompute
// hook.
func (e *Engine) NodeResidentsConsistent(n int) bool {
	prev := -1
	for _, r := range e.nodes[n] {
		if r.job == nil || r.job.ID <= prev || r.cores <= 0 {
			return false
		}
		if r.slot < 0 || r.slot >= len(r.job.Nodes) || r.job.Nodes[r.slot] != n {
			return false
		}
		prev = r.job.ID
	}
	return true
}

// Monitor installs a periodic recorder sampling every node's bandwidth
// and occupancy, mirroring the paper's 30-second monitoring episodes.
// Sampling stops after horizon (0 = run forever while events remain).
func (e *Engine) Monitor(rec *pmu.Recorder, horizon float64) {
	var tick func()
	tick = func() {
		now := e.q.Now()
		for n := range e.nodes {
			rec.Record(pmu.NodeSample{
				Time: units.SecondsOf(now), Node: n,
				BandwidthGB: e.NodeBandwidth(n),
				ActiveCores: units.CoresOf(e.NodeActiveCores(n)),
			})
		}
		if horizon > 0 && now+rec.Interval > horizon {
			return
		}
		if e.q.Len() > 0 { // stop ticking once the workload has drained
			e.q.At(now+rec.Interval, tick)
		}
	}
	e.q.At(e.q.Now(), tick)
}

// Run drives the simulation until the event queue empties or the horizon
// passes. It returns the number of events processed.
func (e *Engine) Run(horizon float64) int { return e.q.Run(horizon) }

// advance brings a running job's progress and counters up to now.
//
//sns:hotpath
func (e *Engine) advance(j *Job) {
	now := e.q.Now()
	dt := now - j.lastT
	if dt <= 0 {
		return
	}
	j.remaining -= j.rate * dt
	if j.remaining < 0 {
		j.remaining = 0
	}
	cores := float64(j.TotalCores())
	j.counters.Elapsed += units.SecondsOf(dt)
	j.counters.Cycles += units.CyclesOf(e.spec.Node.FreqGHz.Float64() * cores * dt)
	j.counters.Instructions += units.InstrOf(j.perCoreRate * j.computeFrac * cores * dt)
	j.counters.CommSeconds += units.SecondsOf((1 - j.computeFrac) * dt)
	traffic := 0.0
	for i := range j.shares {
		traffic += j.shares[i].grant.Float64()
	}
	j.counters.TrafficGB += units.GBOf(traffic * j.computeFrac * dt)
	j.lastT = now
}

// insertionSortInts sorts s ascending. The inputs here (dirty nodes,
// typically 1-2 entries) are tiny, and unlike sort.Ints this never
// escapes to an interface value.
//
//sns:hotpath
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k-1] > s[k]; k-- {
			s[k-1], s[k] = s[k], s[k-1]
		}
	}
}

// insertionSortJobs sorts jobs by ID. The affected list is assembled
// from per-node lists that are already ID-sorted, so it arrives nearly
// sorted and insertion sort runs in close to linear time.
//
//sns:hotpath
func insertionSortJobs(s []*Job) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k-1].ID > s[k].ID; k-- {
			s[k-1], s[k] = s[k], s[k-1]
		}
	}
}

// recompute resolves contention on the marked-dirty nodes and refreshes
// the rates and finish events of every job touching them. Jobs are
// advanced and refreshed in ascending ID order and nodes resolved in
// ascending node order — the same deterministic order the event queue's
// tie-breaking depends on.
//
//sns:hotpath
func (e *Engine) recompute() {
	e.epoch++
	e.affected = e.affected[:0]
	insertionSortInts(e.dirtyList)
	for _, n := range e.dirtyList {
		for _, r := range e.nodes[n] {
			if r.job.seen != e.epoch {
				r.job.seen = e.epoch
				//lint:allocfree affected scratch reaches resident-job count during warm-up, then stable
				e.affected = append(e.affected, r.job)
			}
		}
	}
	insertionSortJobs(e.affected)
	// Advance all affected jobs under their previous rates first.
	for _, j := range e.affected {
		e.advance(j)
	}
	// Resolve each dirty node.
	for _, n := range e.dirtyList {
		e.resolveNode(n)
	}
	for _, n := range e.dirtyList {
		e.dirtyMark[n] = false
	}
	e.dirtyList = e.dirtyList[:0]
	// Refresh job-level rates and finish events.
	for _, j := range e.affected {
		e.refreshJob(j)
	}
	if e.audit != nil {
		//lint:allocfree auditor hook is nil in production; the runtime gate vets audited runs
		e.audit()
	}
}

// SetAudit installs a read-only hook run after every recompute, i.e. at
// every event that changes any node's population or allocation. The
// invariant auditor attaches here.
func (e *Engine) SetAudit(fn func()) { e.audit = fn }

// growFloats returns s resized to n, reusing capacity.
//
//sns:hotpath
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//lint:allocfree capacity-miss growth path only; steady state reuses the backing array
		return make([]float64, n)
	}
	return s[:n]
}

// resolveNode computes every resident job's share of the node's LLC and
// memory bandwidth. Residents are visited in job-ID order.
//
//sns:hotpath
func (e *Engine) resolveNode(n int) {
	res := e.nodes[n]
	if len(res) == 0 {
		return
	}
	sc := &e.scratch

	spec := e.spec.Node
	totalCores := 0
	for _, r := range res {
		totalCores += r.cores
	}

	// LLC ways: CAT-managed jobs keep their partitions; the remainder
	// is the free pool. With only managed jobs the pool is given away
	// in equal shares and reclaimed when a new job arrives (Section
	// 4.4) — except to jobs under a profiler way-override, whose
	// allocation must stay exact. Unmanaged jobs (CE/CS) split the
	// pool in proportion to their core-weighted miss traffic: in an
	// uncontrolled shared cache, occupancy follows eviction pressure,
	// so a streaming thrasher squeezes out a reuse-friendly neighbor.
	sc.ways = growFloats(sc.ways, len(res))
	sc.unmanaged = sc.unmanaged[:0]
	sc.giveaway = sc.giveaway[:0]
	managedTotal := 0.0
	for i, r := range res {
		j := r.job
		w := j.Ways
		if j.wayOverride > 0 {
			w = j.wayOverride
		}
		if w > 0 {
			sc.ways[i] = w.Float64()
			managedTotal += w.Float64()
			if j.wayOverride == 0 {
				//lint:allocfree per-node scratch bounded by resident jobs, stable after warm-up
				sc.giveaway = append(sc.giveaway, i)
			}
		} else {
			sc.ways[i] = 0
			//lint:allocfree per-node scratch bounded by resident jobs, stable after warm-up
			sc.unmanaged = append(sc.unmanaged, i)
		}
	}
	pool := spec.LLCWays.Float64() - managedTotal
	if pool < 0 {
		pool = 0
	}
	if len(sc.unmanaged) > 0 {
		weight := 0.0
		for _, i := range sc.unmanaged {
			weight += float64(res[i].cores) * (0.05 + res[i].job.Prog.BWPerCoreRef)
		}
		for _, i := range sc.unmanaged {
			pressure := float64(res[i].cores) * (0.05 + res[i].job.Prog.BWPerCoreRef)
			sc.ways[i] = pool * pressure / weight
		}
	} else if pool > 0 && len(sc.giveaway) > 0 {
		share := pool / float64(len(sc.giveaway))
		for _, i := range sc.giveaway {
			sc.ways[i] += share
		}
	}

	// Memory bandwidth: demands are water-filled against the roofline
	// for the node's active core count. Each resident's cache curves are
	// evaluated once; its demand, IPC and miss rate all derive from them.
	sc.demands = growFloats(sc.demands, len(res))
	sc.rawDemands = growFloats(sc.rawDemands, len(res))
	sc.effWays = growFloats(sc.effWays, len(res))
	sc.ipcs = growFloats(sc.ipcs, len(res))
	sc.missPcts = growFloats(sc.missPcts, len(res))
	for i, r := range res {
		j, p := r.job, r.job.Prog
		eff := p.EffectiveWays(sc.ways[i], r.cores)
		sc.effWays[i] = eff
		ipcRel, missRel := p.Curves(eff, j.SpanNodes() > 1)
		load := p.LoadFactor(totalCores, spec.Cores.Int())
		sc.ipcs[i] = p.IPCFrom(ipcRel, load)
		sc.missPcts[i] = p.MissPctFrom(missRel)
		d := float64(r.cores) * p.BWDemandFrom(ipcRel, missRel, load)
		if j.phaseMul > 0 {
			d *= j.phaseMul
		}
		sc.rawDemands[i] = d
		// MBA throttling caps what the job may request; the slowdown
		// from running under the cap shows up through the throttle
		// ratio against the raw (unthrottled) demand below.
		if j.BWCap > 0 && d > j.BWCap.Float64() {
			d = j.BWCap.Float64()
		}
		sc.demands[i] = d
	}
	sc.grants = growFloats(sc.grants, len(res))
	if cap(sc.order) < len(res) {
		//lint:allocfree capacity-miss growth path only; steady state reuses the backing array
		sc.order = make([]int, len(res))
	}
	hw.WaterFillInto(sc.grants, spec.StreamBandwidth(units.CoresOf(totalCores)).Float64(), sc.demands, sc.order[:len(res)])

	// I/O bandwidth to the shared file system is a third contended
	// resource, water-filled against the node's injection limit.
	sc.ioDemands = growFloats(sc.ioDemands, len(res))
	for i, r := range res {
		sc.ioDemands[i] = float64(r.cores) * r.job.Prog.IOBWPerCore
	}
	sc.ioGrants = growFloats(sc.ioGrants, len(res))
	hw.WaterFillInto(sc.ioGrants, spec.IOBandwidth.Float64(), sc.ioDemands, sc.order[:len(res)])

	for i, r := range res {
		throttle := 1.0
		if sc.rawDemands[i] > 0 && sc.grants[i] < sc.rawDemands[i] {
			throttle = sc.grants[i] / sc.rawDemands[i]
		}
		if sc.ioDemands[i] > 0 && sc.ioGrants[i] < sc.ioDemands[i] {
			if t := sc.ioGrants[i] / sc.ioDemands[i]; t < throttle {
				throttle = t
			}
		}
		r.job.shares[r.slot] = nodeShare{
			rate:    sc.ipcs[i] * spec.FreqGHz.Float64() * throttle,
			grant:   units.GBpsOf(sc.grants[i]),
			demand:  units.GBpsOf(sc.rawDemands[i]),
			ioGrant: units.GBpsOf(sc.ioGrants[i]),
			missPct: sc.missPcts[i],
			effWays: sc.effWays[i],
			cores:   r.cores,
		}
	}
}

// refreshJob recomputes a job's completion rate from its per-node shares
// and reschedules its finish event.
//
//sns:hotpath
func (e *Engine) refreshJob(j *Job) {
	if j.State != Running {
		return
	}
	// Gating rate: the slowest node limits lock-step parallel progress.
	minRate := -1.0
	missSum, grantSum, ioSum, wayseffSum := 0.0, 0.0, 0.0, 0.0
	for i := range j.Nodes {
		sh := &j.shares[i]
		if minRate < 0 || sh.rate < minRate {
			minRate = sh.rate
		}
		missSum += sh.missPct
		grantSum += sh.grant.Float64()
		ioSum += sh.ioGrant.Float64()
		wayseffSum += sh.effWays
	}
	nn := float64(len(j.Nodes))
	j.perCoreRate = minRate

	comm := j.comm * e.commInflation(j)

	var computeSec float64
	if minRate > 0 {
		computeSec = j.work / minRate
	}
	total := computeSec + comm
	if minRate <= 0 || total <= 0 {
		j.rate = 0
		j.computeFrac = 0
	} else {
		j.rate = 1 / total
		j.computeFrac = computeSec / total
	}
	j.metrics = pmu.Metrics{
		IPC:           units.IPCOf(j.perCoreRate / e.spec.Node.FreqGHz.Float64() * j.computeFrac),
		BWPerNode:     units.GBpsOf(grantSum / nn * j.computeFrac),
		BWTotal:       units.GBpsOf(grantSum * j.computeFrac),
		IOPerNode:     units.GBpsOf(ioSum / nn * j.computeFrac),
		MissPct:       missSum / nn,
		ComputeFrac:   j.computeFrac,
		EffectiveWays: wayseffSum / nn,
	}
	// Reschedule completion.
	e.q.Cancel(j.finishEv)
	j.finishEv = nil
	if j.rate > 0 {
		at := e.q.Now() + j.remaining/j.rate
		j.finishEv = e.q.At(at, j.finishFn)
	}
}

// commInflation estimates NIC contention: on each of the job's nodes, sum
// the uncontended NIC-utilization fractions of all spread jobs; the worst
// node stretches this job's communication.
//
//sns:hotpath
func (e *Engine) commInflation(j *Job) float64 {
	if j.SpanNodes() <= 1 {
		return 1
	}
	worst := 1.0
	for _, n := range j.Nodes {
		utils := e.scratch.utils[:0]
		for _, r := range e.nodes[n] {
			other := r.job
			if other.SpanNodes() <= 1 {
				continue
			}
			w, c := other.work, other.comm
			rr := other.perCoreRate
			if rr <= 0 {
				// Not yet rated (fresh launch): use solo rate.
				rr = other.Prog.IPCMax * e.spec.Node.FreqGHz.Float64()
			}
			//lint:allocfree utils scratch reuses e.scratch.utils backing array after warm-up
			utils = append(utils, c/(w/rr+c))
		}
		e.scratch.utils = utils
		if f := interconnect.Inflation(utils); f > worst {
			worst = f
		}
	}
	return worst
}

// Cancel aborts a running job immediately: its resources are released,
// co-runners re-rate, and OnFinish listeners fire with the job in
// Cancelled state. Used for failure injection and operator kills.
func (e *Engine) Cancel(id int) error {
	j, ok := e.jobs[id]
	if !ok || j.State != Running {
		return fmt.Errorf("exec: job %d not running", id)
	}
	e.advance(j)
	j.State = Cancelled
	j.Finish = e.q.Now()
	j.rate = 0
	e.q.Cancel(j.finishEv)
	j.finishEv = nil
	for _, n := range j.Nodes {
		e.removeResident(n, j.ID)
		e.markDirty(n)
	}
	e.recompute()
	for _, fn := range e.onFinish {
		fn(j)
	}
	return nil
}

// finish completes a job: releases its nodes and notifies listeners.
func (e *Engine) finish(j *Job) {
	if j.State != Running {
		return
	}
	e.advance(j)
	j.State = Done
	j.Finish = e.q.Now()
	j.rate = 0
	e.q.Cancel(j.finishEv)
	j.finishEv = nil
	for _, n := range j.Nodes {
		e.removeResident(n, j.ID)
		e.markDirty(n)
	}
	e.recompute()
	for _, fn := range e.onFinish {
		fn(j)
	}
}
