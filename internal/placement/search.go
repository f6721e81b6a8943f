package placement

import (
	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/units"
)

// Request describes one job to place, independent of which layer submits
// it. Two shapes exist:
//
//   - process-based (Procs > 0): the testbed scheduler's shape. Per-node
//     core counts come from EvenSplit over the chosen footprint, and the
//     program's MultiNode/PowerOf2 constraints gate each scale.
//   - footprint-based (Procs == 0): the trace replay's shape. The trace
//     records a node count (BaseNodes) and a per-node slice width
//     (CoresPerNode); scaled footprints divide that work uniformly.
type Request struct {
	// Procs is the total process count (0 for footprint-based requests).
	Procs int
	// BaseNodes is the minimum node footprint at scale factor 1.
	BaseNodes int
	// CoresPerNode is the per-node process count of a footprint-based
	// request at scale 1 (ignored when Procs > 0).
	CoresPerNode int
	// MemGBPerProc is the per-process main-memory demand (0 = unaccounted).
	MemGBPerProc float64
	// Alpha is the SNS slowdown threshold for demand estimation.
	Alpha float64
	// MultiNode and PowerOf2 are the program's spreading constraints
	// (only consulted for process-based requests).
	MultiNode bool
	PowerOf2  bool
	// Intensive marks the job shared-resource intensive for TwoSlot.
	Intensive bool
	// Profile is the program's scale profile; nil makes SNS fall back
	// to CS-style placement (an unprofiled program's first runs).
	Profile *profiler.Profile
}

// runnable reports whether the request may run spread over n nodes.
func (r *Request) runnable(n int) bool {
	if r.Procs <= 0 {
		return true
	}
	return ScaleRunnable(r.Procs, n, r.MultiNode, r.PowerOf2)
}

// firstShare returns the largest per-node core count of the request over
// an n-node footprint — EvenSplit(Procs, n)[0] by arithmetic for a
// process-based request, the scaled slice width for a footprint-based
// one. A rung sizes its core and memory demand from it; the vector is
// built only by the rung that places (coresAt).
func (r *Request) firstShare(n int) int {
	if r.Procs > 0 {
		return (r.Procs + n - 1) / n
	}
	return (r.CoresPerNode*r.BaseNodes + n - 1) / n
}

// Plan is a policy's placement decision: which nodes, how many cores on
// each, and the uniform way/bandwidth reservations to attach.
type Plan struct {
	Nodes []int
	// Cores is aligned with Nodes and read-only: a footprint-based
	// request's vector is a view of a table its Search owns and hands to
	// every plan of that per-node count. Callers may retain it.
	Cores []int
	// Ways, BW, IOBW are the per-node SNS reservations (zero for the
	// unmanaged-sharing policies).
	Ways units.Ways
	BW   units.GBps
	IOBW units.GBps
	// Exclusive dedicates every placed node.
	Exclusive bool
	// K is the chosen scale factor (1 when the policy never scales).
	K int
}

// ScaleRunnable reports whether a procs-process program may run over n
// nodes given its framework constraints.
func ScaleRunnable(procs, n int, multiNode, powerOf2 bool) bool {
	if n > procs {
		return false
	}
	if !multiNode && n > 1 {
		return false
	}
	if powerOf2 && procs%n != 0 {
		return false
	}
	return true
}

// EvenSplit divides procs over n nodes as evenly as possible, larger
// shares first.
func EvenSplit(procs, n int) []int {
	if n <= 0 || procs <= 0 {
		return nil
	}
	//lint:allocfree a plan's core vector is the caller's product; only the rung that places asks for one
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

// Search runs the placement policies over one cluster backend. The
// backend supplies capacity reads (View) and the synchronized free-core
// index (Idx); between calls the Search keeps only reusable buffers,
// constant tables (core runs, the scale ladders its profiles resolve to)
// and, beside a score cache, the host sets of failed walks that the
// cache's dirty set keeps current (failed.go) — never a copy of cluster
// state.
//
// Determinism rules (the golden figure digests depend on them):
//
//   - candidates are enumerated bucket-ascending, id-ascending — the
//     index's only order — which reproduces the sort-by-(free, id) and
//     ID-order scans of the linear implementations it replaced;
//   - node scores are read through View with the same expression shape
//     as cluster.Node.Score, so float results are bit-identical;
//   - FindDemand orders candidates by (score, id), a total order, making
//     the selection independent of candidate enumeration order.
type Search struct {
	View NodeView
	Idx  *CoreIndex
	// Spec is the per-node hardware shape; Nodes the cluster size.
	Spec  hw.NodeSpec
	Nodes int
	// Beta weighs LLC occupancy in the node score (0 = paper default).
	Beta float64
	// MaxScale bounds the scale-factor search.
	MaxScale int
	// NoGrouping disables the idle-core grouping of Section 4.4.
	NoGrouping bool
	// ExclusiveSpread is the spread-without-share ablation: SNS scales
	// to the profiled footprint but keeps nodes dedicated.
	ExclusiveSpread bool
	// HasIntensive reports whether a node already hosts a
	// shared-resource-intensive job (TwoSlot's pairing rule). Only
	// consulted for intensive requests; nil means no node does.
	HasIntensive func(id int) bool
	// Cache, when set, is the incremental score index FindDemand draws
	// each bucket's ordered candidates from instead of scanning and
	// rescoring it. The backend must feed the cache's dirty set
	// (Invalidate) on every reservation change; the search flushes
	// pending invalidations before each walk, so answers are
	// bit-identical to a search without one.
	Cache *ScoreCache

	// scratch buffers candidate ids and scores across calls. A Search
	// serves one scheduling loop, so reuse is safe; every helper copies
	// its result out before returning. ids serves ascendFree and
	// placeTwoSlot, neither of which runs inside the other; cores is
	// TwoSlot's per-node take; pairs is FindDemand's candidates, and
	// merge their sortRuns buffer when no cache lends its own.
	scratch struct {
		ids   []int
		cores []int
		pairs []cacheEntry
		merge []cacheEntry
	}

	// runs maps a per-node core count to a run of that value, the
	// backing store of every footprint plan's Cores (see repeated).
	runs map[int][]int

	// failed is the remembered-failure table of the cached search
	// (failed.go): derived state like the scratch above, never
	// snapshotted — an empty table only means the next failing walk is
	// made instead of skipped. spare holds the host bitsets of dropped
	// entries for the next new one.
	failed []failEntry
	spare  [][]uint64

	// ladders memoises each (profile, alpha) pair's SNS trial order and
	// per-rung demand (ladder.go): derived from the profile alone, so
	// like the runs above it holds nothing of the cluster or the request.
	ladders map[ladderKey][]rung
}

func (s *Search) beta() float64 {
	if s.Beta == 0 {
		return core.DefaultBeta
	}
	return s.Beta
}

// Audit cross-checks every table the search derives from the cluster or
// from profiles against its source — the score cache if one is set, the
// remembered failures, the scale ladders — and returns the first
// violation. The invariant auditor calls it between mutations; a derived
// table added later registers its check here.
func (s *Search) Audit() error {
	if s.Cache != nil {
		if err := s.Cache.audit(s.View, s.Idx, s.Spec, s.beta()); err != nil {
			return err
		}
	}
	if err := s.auditFailures(); err != nil {
		return err
	}
	return s.auditLadders()
}

// Place runs one policy's search. It returns nil when the job cannot be
// placed right now.
func (s *Search) Place(p Policy, req Request) *Plan {
	switch p {
	case CE:
		return s.placeCE(req)
	case CS:
		return s.placeCS(req)
	case SNS:
		return s.placeSNS(req)
	case TwoSlot:
		return s.placeTwoSlot(req)
	}
	return nil
}

// Idle returns the n lowest-id fully-free nodes, or nil if fewer exist:
// ascendFree confined to the fully-free bucket.
func (s *Search) Idle(n int) []int {
	return s.ascendFree(s.Spec.Cores.Int(), n, 0)
}

// placeCE packs the job onto the minimum number of fully idle nodes and
// dedicates them.
func (s *Search) placeCE(req Request) *Plan {
	n := req.BaseNodes
	nodes := s.Idle(n)
	if nodes == nil {
		return nil
	}
	return &Plan{Nodes: nodes, Cores: s.coresAt(&req, n), Exclusive: true, K: 1}
}

// placeCS shares nodes by free cores, trying the lowest scale factor
// first and growing the footprint only when compact placement is
// impossible. Candidates are taken fullest-first (tightest bucket first,
// id order within) to keep placement compact.
//
//sns:hotpath
func (s *Search) placeCS(req Request) *Plan {
	for k := 1; k <= s.MaxScale; k++ {
		n := k * req.BaseNodes
		if n > s.Nodes {
			break
		}
		if !req.runnable(n) {
			continue
		}
		share := req.firstShare(n)
		mem := float64(share) * req.MemGBPerProc
		nodes := s.ascendFree(share, n, mem)
		if nodes == nil {
			continue
		}
		//lint:allocfree the plan is the caller's product, built once by the rung that places
		return &Plan{Nodes: nodes, Cores: s.coresAt(&req, n), K: k}
	}
	return nil
}

// ascendFree collects n nodes with at least minFree cores and mem GB
// free, fullest buckets first, or nil if fewer qualify. Memory binds only
// when asked (mem > 0); otherwise the bucket counts decide and the nodes
// are taken straight from the index. Asked, candidates gather in scratch
// and only a full set is copied out.
//
//sns:hotpath
func (s *Search) ascendFree(minFree, n int, mem float64) []int {
	if n <= 0 {
		return nil
	}
	top := s.Spec.Cores.Int()
	if mem <= 0 {
		have := 0
		for f := minFree; f <= top && have < n; f++ {
			have += s.Idx.Count(f)
		}
		if have < n {
			return nil
		}
		//lint:allocfree result slice is the caller's product, made only once n nodes are known to qualify
		out := make([]int, n)
		for f, got := minFree, 0; got < n; f++ {
			got += s.Idx.Take(f, out[got:])
		}
		return out
	}
	ids := s.scratch.ids[:0]
	for f := minFree; f <= top && len(ids) < n; f++ {
		if s.Idx.Count(f) == 0 {
			continue
		}
		//lint:allocfree closure does not escape Scan; the runtime alloc gate verifies stack allocation
		s.Idx.Scan(f, func(id int) bool {
			if s.View.FreeMem(id) >= mem {
				//lint:allocfree scratch append; capacity is stable after warm-up
				ids = append(ids, id)
			}
			return len(ids) < n
		})
	}
	s.scratch.ids = ids
	if len(ids) < n {
		return nil
	}
	return exact(ids)
}

// placeSNS implements the Figure 11 process: walk the profiled scale
// factors in descending exclusive performance; for each, estimate
// (c, w, b) under the job's alpha and search for nodes; dispatch on the
// first fit. Scaling-class programs chase their fastest profiled
// footprint; neutral and compact programs are spread only passively —
// they stay at their minimum footprint unless resources force a larger
// one (Section 6.1: neutral jobs are "fillers"). Order and estimates come
// resolved from the ladder memo; what depends on the request or the
// cluster — MaxScale, the footprint, runnability, the search — is decided
// here, per attempt.
//
//sns:hotpath
func (s *Search) placeSNS(req Request) *Plan {
	if req.Profile == nil {
		return s.placeCS(req)
	}
	for _, r := range s.ladder(req.Profile, req.Alpha) {
		if r.k > s.MaxScale {
			continue
		}
		n := r.k * req.BaseNodes
		if n > s.Nodes || !req.runnable(n) {
			continue
		}
		if s.ExclusiveSpread {
			idle := s.Idle(n)
			if idle == nil {
				continue
			}
			//lint:allocfree the plan is the caller's product, built once by the rung that places
			return &Plan{Nodes: idle, Cores: s.coresAt(&req, n), Exclusive: true, K: r.k}
		}
		d := r.d
		if req.Procs > 0 {
			d.Cores = req.firstShare(n)
		}
		d.MemGB = float64(d.Cores) * req.MemGBPerProc
		nodes := s.FindDemand(n, d)
		if nodes == nil {
			continue
		}
		var cores []int
		if req.Procs > 0 {
			cores = EvenSplit(req.Procs, n)
		} else {
			cores = s.repeated(d.Cores, n)
		}
		//lint:allocfree the plan is the caller's product, built once by the rung that places
		return &Plan{Nodes: nodes, Cores: cores, Ways: d.Ways, BW: d.BW, IOBW: d.IOBW, K: r.k}
	}
	return nil
}

// coresAt returns the per-node core counts of req over an n-node
// footprint: a fresh EvenSplit for a process-based request, a shared
// read-only run of the per-node slice width for a footprint-based one.
// Only a rung that has its nodes calls it.
func (s *Search) coresAt(req *Request, n int) []int {
	if req.Procs > 0 {
		return EvenSplit(req.Procs, n)
	}
	return s.repeated(req.firstShare(n), n)
}

// repeated returns n copies of v as a view of the Search's run of that
// value, so a footprint plan — placed or abandoned mid-walk — costs no
// core vector of its own. A run that is too short is replaced, never
// extended in place: plans handed out earlier keep reading the old one.
func (s *Search) repeated(v, n int) []int {
	run := s.runs[v]
	if len(run) < n {
		//lint:allocfree warm-up: a run grows only when a wider footprint than any before it places
		run = make([]int, max(n, 2*len(run)))
		for i := range run {
			run[i] = v
		}
		if s.runs == nil {
			//lint:allocfree once per Search
			s.runs = make(map[int][]int)
		}
		//lint:allocfree warm-up: one entry per distinct per-node core count
		s.runs[v] = run
	}
	return run[:n:n]
}

// FindDemand searches for n nodes that can each host the demand. Per
// Section 4.4 it first tries to place the job within a single group of
// equally-idle nodes (tightest adequate group first, keeping resource
// consumption even within groups); failing that it falls back to the
// whole cluster. Within the chosen set it returns the n idlest nodes by
// the Co + Bo + beta*Wo score, ties broken by id. It returns nil when
// fewer than n qualify.
//
// An equal-free-cores bucket of feasible nodes is exactly an idle-core
// group. Each bucket yields its feasible nodes in ascending (score, id)
// order, a total order; only the source differs:
//
//   - with a score cache, after settle and provenShort (failed.go), a
//     walk of the cache's ordered lists, stopped at the n-th feasible
//     node while grouping;
//   - without one, a scan that scores every feasible node once, put in
//     order by sortRuns.
//
// The first bucket holding n answers with its first n; failing that,
// the buckets' runs are merged by sortRuns and cut to n. A cached walk
// that fails leaves behind the set of nodes that can host the demand
// (rememberFailure).
//
//sns:hotpath
func (s *Search) FindDemand(n int, d core.Demand) []int {
	if n <= 0 {
		return nil
	}
	c, buf := s.Cache, &s.scratch.merge
	if c != nil {
		s.settle()
		if s.provenShort(n, d) {
			return nil
		}
		buf = &c.sortBuf // one merge buffer per search
	}
	beta := s.beta()
	sim, _ := s.View.(*SimState)
	all := s.scratch.pairs[:0]
	for f := max(d.Cores, 0); f <= s.Spec.Cores.Int(); f++ {
		if s.Idx.Count(f) == 0 {
			continue
		}
		start := len(all)
		if c != nil {
			c.prepare(f, s.Idx)
			//lint:allocfree closure does not escape walk; the runtime alloc gate verifies stack allocation
			c.walk(f, s.Idx, func(id int32, sc float64) bool {
				if s.fits(sim, int(id), d) {
					all = append(all, cacheEntry{score: sc, id: id})
				}
				return s.NoGrouping || len(all)-start < n
			})
		} else {
			//lint:allocfree closure does not escape Scan; the runtime alloc gate verifies stack allocation
			s.Idx.Scan(f, func(id int) bool {
				if s.fits(sim, id, d) {
					all = append(all, cacheEntry{score: s.score(id, beta), id: int32(id)})
				}
				return true
			})
			sortRuns(all[start:], buf)
		}
		if !s.NoGrouping && len(all)-start >= n {
			s.scratch.pairs = all
			return idsOf(all[start : start+n])
		}
	}
	s.scratch.pairs = all
	if len(all) < n {
		if c != nil {
			s.rememberFailure(d, all)
		}
		return nil
	}
	sortRuns(all, buf)
	return idsOf(all[:n])
}

// idsOf copies the node ids of ents out as the caller's own slice.
//
//sns:hotpath
func idsOf(ents []cacheEntry) []int {
	//lint:allocfree result slice is the caller's product, not reusable scratch
	out := make([]int, len(ents))
	for i, e := range ents {
		out[i] = int(e.id)
	}
	return out
}

// fits checks the non-core demand dimensions (cores are pre-filtered by
// the index bucket). Each dimension binds only when requested (> 0).
// sim is s.View as a *SimState, asserted once by the caller so that a
// search over the simulator reads its arrays without an interface call
// per node; nil reads through View.
//
//sns:hotpath
func (s *Search) fits(sim *SimState, id int, d core.Demand) bool {
	if sim != nil {
		return !(d.Ways > 0 && sim.FreeWays(id) < d.Ways) &&
			!(d.BW > 0 && sim.FreeBW(id) < d.BW) &&
			!(d.MemGB > 0 && sim.FreeMem(id) < d.MemGB) &&
			!(d.IOBW > 0 && sim.FreeIO(id) < d.IOBW)
	}
	v := s.View
	return !(d.Ways > 0 && v.FreeWays(id) < d.Ways) &&
		!(d.BW > 0 && v.FreeBW(id) < d.BW) &&
		!(d.MemGB > 0 && v.FreeMem(id) < d.MemGB) &&
		!(d.IOBW > 0 && v.FreeIO(id) < d.IOBW)
}

// score is the SNS node-selection metric Co + Bo + beta*Wo, built from
// the occupied fractions of cores, bandwidth, and LLC ways. Lower is
// idler. The expression shape matches the cluster bookkeeping's original
// so readings are bit-identical.
//
//sns:hotpath
func (s *Search) score(id int, beta float64) float64 {
	return nodeScoreOf(s.View, s.Spec, id, beta)
}

// nodeScoreOf reads a node's state through view and scores it with
// scoreOf.
//
//sns:hotpath
func nodeScoreOf(view NodeView, spec hw.NodeSpec, id int, beta float64) float64 {
	return scoreOf(view.UsedCores(id), view.AllocBW(id), view.AllocWays(id), spec, beta)
}

// scoreOf is the one canonical spelling of the score expression, a pure
// function of a node's used cores, allocated bandwidth and allocated
// ways. The live search, the cache flush and the cache audit all reach
// it, and a single compiled expression is what makes cached and
// recomputed floats bit-identical.
//
//sns:hotpath
func scoreOf(used int, bw units.GBps, ways units.Ways, spec hw.NodeSpec, beta float64) float64 {
	co := float64(used) / spec.Cores.Float64()
	bo := bw.Float64() / spec.PeakBandwidth.Float64()
	wo := ways.Float64() / spec.LLCWays.Float64()
	return co + bo + beta*wo
}

// placeTwoSlot places a job into static half-node slots: the job takes
// ceil(procs/halfCores) slots, at most one intensive job per node, no
// scaling and no cache partitioning (the related-work contrast of
// Section 7). One pass in id order gives each node it uses one entry:
// the slots the node offers, up to what the job still needs, in cores.
// Memory binds only when asked.
func (s *Search) placeTwoSlot(req Request) *Plan {
	procs := req.Procs
	if procs <= 0 {
		procs = req.CoresPerNode * req.BaseNodes
	}
	half := s.Spec.Cores.Int() / 2
	if half <= 0 || procs <= 0 {
		return nil
	}
	memPerSlot := float64(half) * req.MemGBPerProc
	// A node gives one slot per free half, but an intensive job at most
	// one — unless it needs more slots than the cluster has nodes: it
	// can never spread that wide, and pairs with nobody when it fills
	// both halves of its own node.
	perNode := procs // more halves than any node has
	if req.Intensive && (procs+half-1)/half <= s.Nodes {
		perNode = 1
	}
	nodes, cores := s.scratch.ids[:0], s.scratch.cores[:0]
	left := procs
	for id := 0; id < s.Nodes && left > 0; id++ {
		free := s.Idx.Free(id)
		if free < half || (req.Intensive && s.HasIntensive != nil && s.HasIntensive(id)) {
			continue
		}
		k := 1 // slots taken here, up to what the job still needs
		for free -= half; free >= half && k < perNode && k*half < left; free -= half {
			k++
		}
		if memPerSlot > 0 {
			freeMem := s.View.FreeMem(id)
			if freeMem < memPerSlot {
				continue
			}
			if byMem := freeMem / memPerSlot; byMem < float64(k) {
				k = int(byMem)
			}
		}
		take := min(k*half, left)
		nodes = append(nodes, id)
		cores = append(cores, take)
		left -= take
	}
	s.scratch.ids, s.scratch.cores = nodes, cores
	if left > 0 || !req.runnable(len(nodes)) {
		return nil
	}
	// The Plan's slices are fresh: callers retain them past this call.
	return &Plan{Nodes: exact(nodes), Cores: exact(cores), K: 1}
}

// exact returns a copy of ids exactly as long as ids.
func exact(ids []int) []int {
	//lint:allocfree result slice is the caller's product, not reusable scratch
	out := make([]int, len(ids))
	copy(out, ids)
	return out
}
