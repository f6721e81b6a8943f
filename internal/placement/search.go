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
//   - selectIdlest orders by (score, id), a total order, making the
//     selection independent of candidate enumeration order.
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
	// Cache, when set, is the incremental score index FindDemand reads
	// instead of rescoring every candidate. The backend must feed the
	// cache's dirty set (Invalidate) on every reservation change; the
	// search flushes pending invalidations before each walk, so results
	// are bit-identical to the from-scratch path.
	Cache *ScoreCache

	// scratch buffers candidate ids and scores across calls. A Search
	// serves one scheduling loop, so reuse is safe; both selection
	// helpers copy their results out before returning. ids serves the
	// from-scratch FindDemand and ascendFree, which never runs inside it
	// (CS placement makes no demand walk).
	scratch struct {
		ids   []int
		slots []int
		heap  []scoredNode
		pairs []cacheEntry
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

// scoredNode pairs a candidate with its selection score.
type scoredNode struct {
	id    int
	score float64
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

// Idle returns the n lowest-id fully-free nodes, or nil if fewer exist.
func (s *Search) Idle(n int) []int {
	if n <= 0 || s.Idx.Count(s.Spec.Cores.Int()) < n {
		return nil
	}
	//lint:allocfree result slice is the caller's product, made only once n idle nodes are known to exist
	out := make([]int, 0, n)
	//lint:allocfree closure does not escape Scan; the runtime alloc gate verifies stack allocation
	s.Idx.Scan(s.Spec.Cores.Int(), func(id int) bool {
		out = append(out, id)
		return len(out) < n
	})
	return out
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
// free, fullest buckets first, or nil if fewer qualify. Candidates
// gather in scratch; only a full set is copied out.
//
//sns:hotpath
func (s *Search) ascendFree(minFree, n int, mem float64) []int {
	if n <= 0 {
		return nil
	}
	ids := s.scratch.ids[:0]
	for f := minFree; f <= s.Spec.Cores.Int() && len(ids) < n; f++ {
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
	//lint:allocfree result slice is the caller's product, not reusable scratch
	out := make([]int, n)
	copy(out, ids)
	return out
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
			d.MemGB = float64(d.Cores) * req.MemGBPerProc
		}
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
// the Co + Bo + beta*Wo score. It returns nil when fewer than n qualify.
//
// A cached walk that fails has tested every node that can host the
// demand, and leaves that set behind (rememberFailure); a query a
// remembered set already rules out is answered nil before any walk
// (provenShort).
//
//sns:hotpath
func (s *Search) FindDemand(n int, d core.Demand) []int {
	if n <= 0 {
		return nil
	}
	if s.Cache != nil {
		return s.findDemandCached(n, d)
	}
	minFree := d.Cores
	if minFree < 0 {
		minFree = 0
	}
	all := s.scratch.ids[:0]
	for f := minFree; f <= s.Spec.Cores.Int(); f++ {
		if s.Idx.Count(f) == 0 {
			continue
		}
		start := len(all)
		//lint:allocfree closure does not escape Scan; the runtime alloc gate verifies stack allocation
		s.Idx.Scan(f, func(id int) bool {
			if s.fits(id, d) {
				all = append(all, id)
			}
			return true
		})
		// An equal-free-cores bucket of feasible nodes is exactly an
		// idle-core group; the first adequate one (ascending free) is
		// the tightest fit.
		if !s.NoGrouping && len(all)-start >= n {
			s.scratch.ids = all
			return s.selectIdlest(all[start:], n)
		}
	}
	s.scratch.ids = all
	if len(all) < n {
		return nil
	}
	return s.selectIdlest(all, n)
}

// findDemandCached is FindDemand over the incremental score cache. The
// control flow mirrors the from-scratch path bucket for bucket; the only
// change is where candidate order and scores come from:
//
//   - grouped path: a bucket walk emits feasible nodes in ascending
//     (score, id) — the very order selectIdlest drains — so the first n
//     feasible nodes ARE the group's n idlest, and the walk stops there
//     instead of rescoring and heap-selecting the whole bucket. The
//     walk finds n feasible nodes exactly when the bucket holds >= n,
//     so the bucket-adequacy decision is unchanged.
//   - fallback path: feasible (score, id) pairs accumulate across
//     buckets and takeIdlest sorts them by the same total order the
//     bounded-heap selection drains in, so the result is identical and
//     independent of candidate enumeration order. Scores come from the
//     cache, where the flush just wrote the bit-identical value the
//     heap would otherwise recompute.
//
// Before any of it, settle drains the dirty set into the remembered
// failures and the cache, and a query a remembered failure rules out
// returns nil there.
//
//sns:hotpath
func (s *Search) findDemandCached(n int, d core.Demand) []int {
	c := s.Cache
	s.settle()
	if s.provenShort(n, d) {
		return nil
	}
	minFree := d.Cores
	if minFree < 0 {
		minFree = 0
	}
	all := s.scratch.pairs[:0]
	for f := minFree; f <= s.Spec.Cores.Int(); f++ {
		if s.Idx.Count(f) == 0 {
			continue
		}
		c.prepare(f, s.Idx)
		start := len(all)
		//lint:allocfree closure does not escape walk; the runtime alloc gate verifies stack allocation
		c.walk(f, s.Idx, func(id int32, sc float64) bool {
			if s.fits(int(id), d) {
				all = append(all, cacheEntry{score: sc, id: id})
			}
			return s.NoGrouping || len(all)-start < n
		})
		if !s.NoGrouping && len(all)-start >= n {
			s.scratch.pairs = all
			//lint:allocfree result slice is the caller's product, not reusable scratch
			out := make([]int, n)
			for i := range out {
				out[i] = int(all[start+i].id)
			}
			return out
		}
	}
	s.scratch.pairs = all
	if len(all) < n {
		s.rememberFailure(d, all)
		return nil
	}
	return s.takeIdlest(all, n)
}

// takeIdlest is the cached-path fallback selection: sort the feasible
// (score, id) pairs by the selectIdlest total order and keep the first
// n. The pairs are the concatenation of one sorted walk per bucket, so
// sortRuns merges at most cores+1 runs. Sorting scratch in place is safe
// — the pairs are consumed here.
//
//sns:hotpath
func (s *Search) takeIdlest(pairs []cacheEntry, n int) []int {
	sortRuns(pairs, &s.Cache.sortBuf)
	//lint:allocfree result slice is the caller's product, not reusable scratch
	out := make([]int, n)
	for i := range out {
		out[i] = int(pairs[i].id)
	}
	return out
}

// fits checks the non-core demand dimensions (cores are pre-filtered by
// the index bucket). Each dimension binds only when requested (> 0).
//
//sns:hotpath
func (s *Search) fits(id int, d core.Demand) bool {
	if d.Ways > 0 && s.View.FreeWays(id) < d.Ways {
		return false
	}
	if d.BW > 0 && s.View.FreeBW(id) < d.BW {
		return false
	}
	if d.MemGB > 0 && s.View.FreeMem(id) < d.MemGB {
		return false
	}
	if d.IOBW > 0 && s.View.FreeIO(id) < d.IOBW {
		return false
	}
	return true
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

// nodeScoreOf is the one canonical spelling of the score expression,
// shared by the live search, the cache flush, and the cache audit — a
// single compiled expression is what makes cached and recomputed floats
// bit-identical.
//
//sns:hotpath
func nodeScoreOf(view NodeView, spec hw.NodeSpec, id int, beta float64) float64 {
	co := float64(view.UsedCores(id)) / spec.Cores.Float64()
	bo := view.AllocBW(id).Float64() / spec.PeakBandwidth.Float64()
	wo := view.AllocWays(id).Float64() / spec.LLCWays.Float64()
	return co + bo + beta*wo
}

// selectIdlest returns up to n node ids from candidates with the lowest
// score, ties broken by id. The (score, id) order is total, so the
// result does not depend on candidate order — which lets the selection
// run as a bounded max-heap (worst-of-the-best at the root) in
// O(C log n) instead of sorting all C candidates. Large-cluster
// placement passes hit this with C in the tens of thousands and n of a
// few dozen, where the full sort dominated replay time.
//
//sns:hotpath
func (s *Search) selectIdlest(candidates []int, n int) []int {
	beta := s.beta()
	// after reports a ranking after b in the ascending (score, id) order.
	after := func(a, b scoredNode) bool {
		//lint:floateq exact tie detection so the (score, id) order stays total
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id > b.id
	}
	h := s.scratch.heap[:0]
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && after(h[r], h[l]) {
				m = r
			}
			if !after(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	if n >= len(candidates) {
		// Everything is selected; only the order is left to establish.
		// Build the heap in one Floyd pass and fall through to the
		// drain — a plain heapsort.
		for _, id := range candidates {
			//lint:allocfree heap scratch reuses s.scratch.heap backing array after warm-up
			h = append(h, scoredNode{id: id, score: s.score(id, beta)})
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(i)
		}
	} else {
		for _, id := range candidates {
			c := scoredNode{id: id, score: s.score(id, beta)}
			if len(h) < n {
				//lint:allocfree heap scratch reuses s.scratch.heap backing array after warm-up
				h = append(h, c)
				for i := len(h) - 1; i > 0; {
					p := (i - 1) / 2
					if !after(h[i], h[p]) {
						break
					}
					h[i], h[p] = h[p], h[i]
					i = p
				}
			} else if after(h[0], c) {
				h[0] = c
				siftDown(0)
			}
		}
	}
	s.scratch.heap = h
	// Drain the heap: each pop yields the worst remaining pick, so
	// filling the result back to front leaves it in ascending
	// (score, id) order without a comparison-sort pass.
	//lint:allocfree result slice is the caller's product, not reusable scratch
	out := make([]int, len(h))
	for len(h) > 0 {
		last := len(h) - 1
		out[last] = h[0].id
		h[0] = h[last]
		h = h[:last]
		siftDown(0)
	}
	return out
}

// placeTwoSlot places a job into static half-node slots: the job takes
// ceil(procs/halfCores) slots, at most one intensive job per node, no
// scaling and no cache partitioning (the related-work contrast of
// Section 7).
func (s *Search) placeTwoSlot(req Request) *Plan {
	procs := req.Procs
	if procs <= 0 {
		procs = req.CoresPerNode * req.BaseNodes
	}
	half := s.Spec.Cores.Int() / 2
	if half <= 0 || procs <= 0 {
		return nil
	}
	slots := (procs + half - 1) / half
	memPerSlot := float64(half) * req.MemGBPerProc
	candidates := s.scratch.slots[:0]
	for id := 0; id < s.Nodes; id++ {
		freeCores := s.Idx.Free(id)
		if freeCores < half {
			continue
		}
		freeMem := s.View.FreeMem(id)
		if freeMem < memPerSlot {
			continue
		}
		if req.Intensive && s.HasIntensive != nil && s.HasIntensive(id) {
			continue
		}
		// A node offers one or two slots; count it once per free half.
		free := freeCores / half
		if memPerSlot > 0 {
			if byMem := int(freeMem / memPerSlot); byMem < free {
				free = byMem
			}
		}
		if req.Intensive && free > 1 && slots <= s.Nodes {
			// At most one intensive slot per node — except for a job
			// needing more slots than the cluster has nodes, which can
			// never spread that wide and pairs with nobody when it
			// fills both halves of its own node.
			free = 1
		}
		for k := 0; k < free && len(candidates) < slots; k++ {
			candidates = append(candidates, id)
		}
		if len(candidates) == slots {
			break
		}
	}
	s.scratch.slots = candidates
	if len(candidates) < slots {
		return nil
	}
	// Merge repeated node ids into per-node core counts. The scan above
	// emits candidates in ascending id order with a node's slots
	// adjacent, so one run-length pass replaces the per-call map+order
	// merge; the Plan slices stay fresh allocations because callers
	// retain them past this Search call.
	nodes := make([]int, 0, len(candidates))
	cores := make([]int, 0, len(candidates))
	remaining := procs
	for i := 0; i < len(candidates); {
		id := candidates[i]
		take := 0
		for ; i < len(candidates) && candidates[i] == id; i++ {
			take += half
		}
		if take > remaining {
			take = remaining
		}
		nodes = append(nodes, id)
		cores = append(cores, take)
		remaining -= take
	}
	if remaining > 0 {
		return nil
	}
	if !req.runnable(len(nodes)) {
		return nil
	}
	return &Plan{Nodes: nodes, Cores: cores, K: 1}
}
