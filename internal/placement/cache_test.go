package placement

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

// cacheHarness drives two identical simulated clusters through the same
// mutation schedule: one searched through the incremental score cache
// and wired the way svc.New wires production (span mutations through
// ReserveSpan/ReleaseSpan + InvalidateSpan), one searched from scratch
// and mutated only by per-node Reserve/Release — the ground truth
// ReserveSpan's doc comment promises to match. The from-scratch search
// has no cache, so it also remembers no failures: every answer it gives
// comes from a walk. Every query must find the two backends in identical
// state and return the identical node list — the bit-identical-digest
// contract — and the cache and the remembered failures must pass their
// audits after every step.
type cacheHarness struct {
	spec   hw.NodeSpec
	nodes  int
	cached *SimState
	plain  *SimState
	cs     *Search // searches through cs.Cache
	ps     *Search // rescoring from scratch
	held   [][]Reservation
	spans  [][]heldSpan // each live span reservation, as its runs
}

// heldSpan is one live uniform span reservation awaiting its release,
// or one run of equal cores of an uneven one.
type heldSpan struct {
	ids []int
	r   Reservation
}

func newCacheHarness(nodes int, noGrouping bool) *cacheHarness {
	spec := hw.DefaultNodeSpec()
	h := &cacheHarness{
		spec:   spec,
		nodes:  nodes,
		cached: NewSimState(spec, nodes),
		plain:  NewSimState(spec, nodes),
		held:   make([][]Reservation, nodes),
	}
	h.cs = &Search{
		View:       h.cached,
		Idx:        h.cached.Index(),
		Spec:       spec,
		Nodes:      nodes,
		NoGrouping: noGrouping,
		Cache:      NewScoreCache(nodes, spec.Cores.Int()),
	}
	h.cached.SetOnChange(h.cs.Cache.Invalidate)
	h.cached.SetOnSpanChange(h.cs.Cache.InvalidateSpan)
	h.ps = &Search{
		View:       h.plain,
		Idx:        h.plain.Index(),
		Spec:       spec,
		Nodes:      nodes,
		NoGrouping: noGrouping,
	}
	return h
}

// reserve takes up to `cores` cores (clamped to the node's free count)
// plus proportional ways/bandwidth on both clusters and remembers the
// effective reservation for a later release.
func (h *cacheHarness) reserve(id, cores, ways, bw int) {
	free := h.cached.Index().Free(id)
	if cores > free {
		cores = free
	}
	if cores <= 0 {
		return
	}
	if w := int(h.cached.FreeWays(id)); ways > w {
		ways = w
	}
	if b := int(h.cached.FreeBW(id)); bw > b {
		bw = b
	}
	r := Reservation{Cores: cores, Ways: units.Ways(ways), BW: units.GBps(bw)}
	eff := h.cached.Reserve(id, r)
	h.plain.Reserve(id, r)
	h.held[id] = append(h.held[id], eff)
}

// release undoes the node's most recent live reservation, if any.
func (h *cacheHarness) release(id int) {
	n := len(h.held[id])
	if n == 0 {
		return
	}
	r := h.held[id][n-1]
	h.held[id] = h.held[id][:n-1]
	h.cached.Release(id, r)
	h.plain.Release(id, r)
}

// spanReserve applies one reservation across a strided span of nodes,
// clamped to the span's tightest free capacities so neither backend can
// underflow. Ways, bandwidth, file-system bandwidth and memory each come
// out zero on some steps, so the span path's skip of untouched
// dimensions is checked against per-node writes. Every third step is
// TwoSlot-shaped: whole runs of nodes take the full count and others
// the remainder, and the cached cluster takes it as one ReserveSpan per
// run of equal cores, as svc reserves an uneven plan. Otherwise it takes
// it as one ReserveSpan. The plain cluster always takes one Reserve per
// node.
func (h *cacheHarness) spanReserve(i int, op byte) {
	width := 2 + int(op>>3)%15
	if width > h.nodes {
		width = h.nodes
	}
	start := (i*29 + int(op)*13) % h.nodes
	stride := 1 + i%5
	ids := make([]int, width)
	for k := range ids {
		ids[k] = (start + k*stride) % h.nodes
	}
	cores := 1 + int(op>>5)
	ways := int(op>>2) & 3
	bw := int(op>>4) % 20
	io := i % 3
	mem := float64(i%4) * 1.5
	for _, id := range ids {
		cores = min(cores, h.cached.Index().Free(id))
		ways = min(ways, int(h.cached.FreeWays(id)))
		bw = min(bw, int(h.cached.FreeBW(id)))
		io = min(io, int(h.cached.FreeIO(id)))
		mem = min(mem, h.cached.FreeMem(id))
	}
	if cores <= 0 {
		return
	}
	r := Reservation{
		Cores: cores, Ways: units.Ways(ways), BW: units.GBps(bw), IOBW: units.GBps(io), MemGB: mem,
		Intensive: op&0x80 != 0,
	}
	var runs []heldSpan
	if i%3 == 0 {
		// Runs of one to three nodes alternate between the full count
		// and the remainder; the last run always takes the remainder.
		rem := r
		rem.Cores = (cores + 1) / 2
		for lo := 0; lo < width; {
			hi := min(width, lo+1+(lo+i)%3)
			run := heldSpan{ids[lo:hi], r}
			if len(runs)%2 == 1 || hi == width {
				run.r = rem
			}
			runs = append(runs, run)
			lo = hi
		}
	} else {
		runs = []heldSpan{{ids, r}}
	}
	for _, run := range runs {
		h.cached.ReserveSpan(run.ids, run.r)
		for _, id := range run.ids {
			h.plain.Reserve(id, run.r)
		}
	}
	h.spans = append(h.spans, runs)
}

// spanRelease undoes the most recent live span reservation, if any, run
// by run.
func (h *cacheHarness) spanRelease() {
	n := len(h.spans)
	if n == 0 {
		return
	}
	runs := h.spans[n-1]
	h.spans = h.spans[:n-1]
	for _, run := range runs {
		h.cached.ReleaseSpan(run.ids, run.r)
		for _, id := range run.ids {
			h.plain.Release(id, run.r)
		}
	}
}

// sameState fails unless the span-mutated and the per-node-mutated
// backends agree on every node's capacities, bit for bit.
func (h *cacheHarness) sameState(t *testing.T) {
	t.Helper()
	c, p := h.cached, h.plain
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for id := 0; id < h.nodes; id++ {
		if c.Index().Free(id) != p.Index().Free(id) || c.FreeWays(id) != p.FreeWays(id) ||
			!bitsEq(c.FreeBW(id).Float64(), p.FreeBW(id).Float64()) || !bitsEq(c.FreeMem(id), p.FreeMem(id)) ||
			!bitsEq(c.FreeIO(id).Float64(), p.FreeIO(id).Float64()) || c.IntensiveCount(id) != p.IntensiveCount(id) {
			t.Fatalf("node %d: span-mutated state diverged from per-node state", id)
		}
	}
}

// query checks the two backends hold the same state, runs the same
// FindDemand on both searches and fails on the first divergence, then
// audits the cache against the live backend. It returns the answer.
func (h *cacheHarness) query(t *testing.T, n int, d core.Demand) []int {
	t.Helper()
	h.sameState(t)
	got := h.cs.FindDemand(n, d)
	want := h.ps.FindDemand(n, d)
	if len(got) != len(want) {
		t.Fatalf("FindDemand(%d, %+v): cached found %d nodes, plain %d", n, d, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("FindDemand(%d, %+v): cached %v != plain %v", n, d, got, want)
		}
	}
	// The pieces, not h.cs.Audit(): count gates wrap h.cs.View, and the
	// audit's own reads must not land in their counts.
	if err := h.cs.Cache.audit(h.cached, h.cached.Index(), h.spec, h.cs.beta()); err != nil {
		t.Fatalf("after FindDemand(%d, %+v): %v", n, d, err)
	}
	if err := h.cs.auditFailures(); err != nil {
		t.Fatalf("after FindDemand(%d, %+v): %v", n, d, err)
	}
	return got
}

// flush drains the cached search's dirty set exactly as the top of a
// cached FindDemand does, so a test can look at the cache between the
// flush and the folds a search goes on to make.
func (h *cacheHarness) flush() { h.cs.settle() }

// pendingAdds counts the entries filed and not yet folded, over every
// bucket.
func (h *cacheHarness) pendingAdds() int {
	n := 0
	for _, add := range h.cs.Cache.adds {
		n += len(add)
	}
	return n
}

// step decodes one fuzz byte into a mutation or a query. Three of the
// eight low-bit patterns are span mutations (two reserves, one release);
// the rest decode by their low two bits into per-node mutations and
// queries. The decode spreads ids over the whole cluster (31 is coprime
// with the node counts used) and exercises both the grouped early-stop
// path (small n) and the accumulate-then-select fallback (large n).
func (h *cacheHarness) step(t *testing.T, i int, op byte) {
	t.Helper()
	switch op & 7 {
	case 0, 1:
		h.spanReserve(i, op)
		return
	case 2:
		h.spanRelease()
		return
	}
	id := (i*31 + int(op)*17) % h.nodes
	switch op & 3 {
	case 0:
		h.reserve(id, 1+int(op>>4), int(op>>2)&7, int(op>>3)%40)
	case 1:
		h.release(id)
	case 2:
		h.query(t, 1+int(op>>4)%6, core.Demand{
			Cores: int(op >> 5), Ways: units.Ways(int(op>>2) & 3), BW: units.GBps(int(op>>3) % 30),
		})
	default:
		h.query(t, 8+int(op>>4), core.Demand{Cores: int(op>>5) & 3})
	}
}

// stepQueries reports whether step decodes op into a search rather than
// a mutation.
func stepQueries(op byte) bool { return op&7 > 2 && op&3 >= 2 }

// stepStuck is step with one case appended: a wide query is followed by
// one for nearly the whole cluster under one of two nested demands — the
// query that keeps failing and keeps being asked again, which is what
// remembered failures answer. It is appended rather than given a bit
// pattern of its own because recorded fuzz inputs replay by byte value:
// every byte still decodes to the mutation it always did. The score gate
// below keeps the bare decode, and with it the counts it was sized on.
func (h *cacheHarness) stepStuck(t *testing.T, i int, op byte) {
	t.Helper()
	h.step(t, i, op)
	if op&3 == 3 {
		h.query(t, h.nodes-int(op>>5), core.Demand{Cores: 2 + int(op>>3)&1, Ways: 2, BW: 10})
	}
}

// TestCachedSearchEquivalence drives long seeded mutation/query
// schedules through the harness in both grouping modes — the standing
// regression test for the cache's bit-identical contract.
func TestCachedSearchEquivalence(t *testing.T) {
	for _, noGrouping := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			h := newCacheHarness(96, noGrouping)
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 1500)
			rng.Read(ops)
			for i, op := range ops {
				h.stepStuck(t, i, op)
			}
			// Drain every reservation so release-driven invalidation on
			// the way back to an idle cluster is covered too.
			for len(h.spans) > 0 {
				h.spanRelease()
			}
			for id := range h.held {
				for len(h.held[id]) > 0 {
					h.release(id)
				}
			}
			h.query(t, 3, core.Demand{Cores: 4})
		}
	}
}

// TestCachedSearchScoreEvaluations is the cache's work gate, on the
// regime the cache exists for: small jobs on a large cluster, a
// placement attempt after every mutation. Over one fixed-seed churn of a
// 1,024-node harness — the fuzz decode's spans and single nodes reserved
// and released, plus one SNS-shaped query of up to 32 nodes per step,
// every query checked for the identical node list — the cached search
// must evaluate at most a quarter of the scores the from-scratch search
// does. The cached side pays for populating the cache (every node scored
// once) and for each dirty node once per flush; the from-scratch side
// rescores every candidate of the bucket it settles on. Counting is
// deterministic, so the gate reads the same on any machine, and it trips
// the moment a flush rescores more than the dirty set.
func TestCachedSearchScoreEvaluations(t *testing.T) {
	h := newCacheHarness(1024, false)
	cached, plain := &countingView{NodeView: h.cs.View}, &countingView{NodeView: h.ps.View}
	h.cs.View, h.ps.View = cached, plain
	ops := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(ops)
	for i, op := range ops {
		h.step(t, i, op)
		h.query(t, 1+i%32, core.Demand{Cores: 16, Ways: 4, BW: 30})
	}
	t.Logf("cached %d score evaluations, from scratch %d (%.1fx)",
		cached.scores, plain.scores, float64(plain.scores)/float64(cached.scores))
	if 4*cached.scores > plain.scores {
		t.Errorf("cached search evaluated %d scores, more than a quarter of the from-scratch search's %d",
			cached.scores, plain.scores)
	}
}

// FuzzCachedSearch lets the fuzzer hunt for mutation schedules that
// break cached/from-scratch agreement or the cache audit.
func FuzzCachedSearch(f *testing.F) {
	f.Add([]byte{0x00, 0x42, 0x81, 0x07, 0xfe, 0x13, 0x02, 0xff}, false)
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0xa2, 0xb3, 0x00, 0x01}, true)
	f.Add([]byte{0xff, 0xff, 0x03, 0x03, 0x03, 0x00, 0x01, 0x02}, false)
	f.Fuzz(func(t *testing.T, ops []byte, noGrouping bool) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		h := newCacheHarness(64, noGrouping)
		for i, op := range ops {
			h.stepStuck(t, i, op)
		}
		h.query(t, 2, core.Demand{Cores: 2})
	})
}

// TestCachedSearchSteadyStateAllocs is the runtime side of the allocfree
// lint suppressions in the cache: once the scratch buffers and bucket
// lists reach steady-state capacity, a mutate-then-search cycle must
// allocate nothing beyond the result slice the caller keeps.
func TestCachedSearchSteadyStateAllocs(t *testing.T) {
	h := newCacheHarness(512, false)
	d := core.Demand{Cores: 4, Ways: 2, BW: 10}
	cycle := func(i int) {
		id := (i * 37) % h.nodes
		h.reserve(id, 1+i%8, i%4, i%20)
		if len(h.held[(id+7)%h.nodes]) > 0 {
			h.release((id + 7) % h.nodes)
		}
		if h.cs.FindDemand(4, d) == nil {
			t.Fatal("no placement")
		}
	}
	for i := 0; i < 3000; i++ { // warm every bucket's backing arrays
		cycle(i)
	}
	n := 3000
	allocs := testing.AllocsPerRun(200, func() {
		cycle(n)
		n++
	})
	// One allocation is the returned node list; everything else must
	// come from steady-state scratch.
	if allocs > 1.5 {
		t.Errorf("steady-state mutate+search allocates %.1f objects/run, want <= 1 (result slice)", allocs)
	}
}

// TestFailingSearchSteadyStateAllocs is the same gate for the searches
// a standing queue makes: on a cluster whose ways bind everywhere, a
// node is released (joining the host set of the remembered failure) and
// a two-node search is answered from the table, then taken again
// (leaving the set) and a one-node search is answered from it too. In
// between, one search of a round-robin of more mutually incomparable
// demands than the table holds walks the whole cluster, fails and takes
// the place of the widest entry, reusing its bitset. Nothing is
// returned, so nothing may be allocated.
func TestFailingSearchSteadyStateAllocs(t *testing.T) {
	h := newCacheHarness(512, false)
	for id := 0; id < h.nodes; id++ {
		h.reserve(id, 2, 18, 10) // 2 ways left
	}
	d := core.Demand{Cores: 4, Ways: 4, BW: 10}
	rotate := func(i int) core.Demand {
		k := i % (maxFailEntries + 3)
		return core.Demand{Cores: 4, Ways: 3, BW: units.GBps(20 + k), MemGB: float64(200 - k)}
	}
	cycle := func(i int) {
		id := (i * 37) % h.nodes
		h.release(id)
		h.cs.settle()
		if !h.cs.provenShort(2, d) || h.cs.FindDemand(2, d) != nil {
			t.Fatal("the two-node search was not answered from the table")
		}
		h.reserve(id, 2, 18, 10)
		h.cs.settle()
		if !h.cs.provenShort(1, d) || h.cs.FindDemand(1, d) != nil {
			t.Fatal("the one-node search was not answered from the table")
		}
		if e := rotate(i); h.cs.provenShort(1, e) || h.cs.FindDemand(1, e) != nil {
			t.Fatal("the rotating search did not walk and fail")
		}
	}
	if h.cs.FindDemand(1, d) != nil {
		t.Fatal("4 ways fit on a node with 2 free")
	}
	for i := 0; i < 1000; i++ { // warm the bucket lists and the table
		cycle(i)
	}
	n := 1000
	allocs := testing.AllocsPerRun(200, func() {
		cycle(n)
		n++
	})
	if allocs != 0 {
		t.Errorf("steady-state mutate+failing search allocates %.1f objects/run, want 0", allocs)
	}
}

// TestSpanSteadyStateAllocs is the zero-alloc gate on the production
// mutation path: once the bucket lists and their spares have grown to
// their steady-state sizes (the dirty bitset never grows), a span
// reserve (serial loop + one InvalidateSpan) + search + span release
// cycle must allocate no object beyond the result slice. It counts
// objects on lists too short to consolidate; TestWideSpanSteadyStateBytes
// is the gate on what wide spans allocate.
func TestSpanSteadyStateAllocs(t *testing.T) {
	state := NewSimState(hw.DefaultNodeSpec(), 512)
	cache := NewScoreCache(512, state.Spec().Cores.Int())
	s := &Search{View: state, Idx: state.Index(), Spec: state.Spec(), Nodes: 512, Cache: cache}
	state.SetOnChange(cache.Invalidate)
	state.SetOnSpanChange(cache.InvalidateSpan)
	ids := make([]int, 0, 256)
	for id := 0; id < 512; id += 2 {
		ids = append(ids, id)
	}
	r := Reservation{Cores: 2, Ways: 1, BW: 5}
	d := core.Demand{Cores: 4}
	cycle := func() {
		state.ReserveSpan(ids, r)
		if s.FindDemand(4, d) == nil {
			t.Fatal("no placement")
		}
		state.ReleaseSpan(ids, r)
	}
	for i := 0; i < 300; i++ { // warm the bucket lists and their spares
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs > 1.5 {
		t.Errorf("steady-state span reserve+search+release allocates %.1f objects/run, want <= 1 (result slice)", allocs)
	}
}

// sink keeps a measured allocation on the heap.
var sink []int

// totalAlloc returns the bytes fn allocates, by the runtime's own count.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWideSpanSteadyStateBytes is the gate the object counts above
// cannot be: AllocsPerRun truncates "one result slice, plus half a
// megabyte of list regrowth every few cycles" to one object. On 32,768
// nodes wired as svc.New wires them, three wide shapes take turns —
// each placed by FindDemand, reserved as one span, nine spans held and
// the oldest released — so every flush drains thousands of nodes and
// buckets consolidate. Once the bucket lists and their spares have grown
// to their steady-state sizes, a cycle may allocate its result slice and
// at most a quarter as much again, in bytes.
func TestWideSpanSteadyStateBytes(t *testing.T) {
	const nodes = 32768
	spec := hw.DefaultNodeSpec()
	state := NewSimState(spec, nodes)
	cache := NewScoreCache(nodes, spec.Cores.Int())
	state.SetOnChange(cache.Invalidate)
	state.SetOnSpanChange(cache.InvalidateSpan)
	s := &Search{
		View: state, Idx: state.Index(), Spec: spec, Nodes: nodes,
		HasIntensive: state.HasIntensive, Cache: cache,
	}
	shapes := []struct {
		n int
		r Reservation
	}{
		{2800, Reservation{Cores: 4, Ways: 2, BW: 10}},
		{1500, Reservation{Cores: 8, Ways: 4, BW: 20}},
		{600, Reservation{Cores: 2, Ways: 1, BW: 5}},
	}
	var held [9]heldSpan
	cycle := func(i int) {
		n, r := shapes[i%len(shapes)].n, shapes[i%len(shapes)].r
		ids := s.FindDemand(n, core.Demand{Cores: r.Cores, Ways: r.Ways, BW: r.BW})
		if ids == nil {
			t.Fatal("no placement")
		}
		state.ReserveSpan(ids, r)
		oldest := &held[i%len(held)]
		if oldest.ids != nil {
			state.ReleaseSpan(oldest.ids, oldest.r)
		}
		*oldest = heldSpan{ids, r}
	}
	const warm, measured = 600, 200
	for i := 0; i < warm; i++ {
		cycle(i)
	}
	perCycle := totalAlloc(func() {
		for i := warm; i < warm+measured; i++ {
			cycle(i)
		}
	}) / measured
	// What the result slices alone cost, in the allocator's size classes.
	results := totalAlloc(func() {
		for _, sh := range shapes {
			sink = make([]int, sh.n)
		}
	}) / uint64(len(shapes))
	t.Logf("%d B per cycle, result slices %d B (%.2fx)", perCycle, results, float64(perCycle)/float64(results))
	if 4*perCycle > 5*results {
		t.Errorf("steady-state wide-span cycle allocates %d B, more than 1.25x its %d B result slice", perCycle, results)
	}
}

// TestFlushRefilesOnlyMovedNodes is the count gate on flush's
// unchanged-key skip: a drained node is rescored always and refiled only
// when its (score, bucket) key moved.
func TestFlushRefilesOnlyMovedNodes(t *testing.T) {
	// A span that came and went between two searches moves no key: the
	// flush files nothing and the answer stands.
	t.Run("span reserved and released", func(t *testing.T) {
		h := newCacheHarness(1024, false)
		ops := make([]byte, 200)
		rand.New(rand.NewSource(2)).Read(ops)
		for i, op := range ops {
			h.step(t, i, op)
		}
		d := core.Demand{Cores: 16, Ways: 4, BW: 30}
		first := h.query(t, 24, d)
		for f := range h.cs.Cache.adds {
			h.cs.Cache.prepare(f, h.cs.Idx)
		}
		h.spanReserve(3, 0x29)
		h.spanRelease()
		if h.cs.Cache.ndirty == 0 {
			t.Fatal("the span dirtied no node")
		}
		h.flush()
		for f, add := range h.cs.Cache.adds {
			if len(add) != 0 {
				t.Errorf("bucket %d: %d entries refiled for nodes whose key did not move", f, len(add))
			}
		}
		second := h.query(t, 24, d)
		if len(first) == 0 || !slices.Equal(first, second) {
			t.Errorf("answer moved across an unmoved span: %v then %v", first, second)
		}
	})

	// Over the fuzz decode's churn — a search for about every third
	// byte, so some spans come and go unseen — the entries filed are
	// exactly the drained nodes whose key differs from the one they were
	// last filed under, keys the test reads off the from-scratch twin,
	// and every drained node is still rescored once.
	t.Run("churn", func(t *testing.T) {
		h := newCacheHarness(1024, false)
		cached := &countingView{NodeView: h.cs.View}
		h.cs.View = cached
		type key struct {
			score  float64
			bucket int
		}
		last := make([]key, h.nodes)
		for id := range last {
			last[id].bucket = -1 // never filed
		}
		c := h.cs.Cache
		drained, moved, filed := 0, 0, 0
		// countedFlush flushes ahead of the search that would, counting
		// what the flush drains, what moved and what it files.
		countedFlush := func() {
			before := h.pendingAdds()
			drained += c.ndirty
			for w, word := range c.dirty {
				for ; word != 0; word &= word - 1 {
					id := w<<6 + bits.TrailingZeros64(word)
					k := key{nodeScoreOf(h.plain, h.spec, id, h.cs.beta()), h.plain.Index().Free(id)}
					if k != last[id] {
						last[id] = k
						moved++
					}
				}
			}
			h.flush()
			after := h.pendingAdds()
			if after < before {
				t.Fatal("flush folded a bucket, so its pending adds no longer count what was filed")
			}
			filed += after - before
		}
		ops := make([]byte, 1000)
		rand.New(rand.NewSource(1)).Read(ops)
		for i, op := range ops {
			if stepQueries(op) {
				countedFlush()
			}
			h.step(t, i, op)
		}
		countedFlush()
		t.Logf("%d nodes drained, %d with a moved key, %d entries filed", drained, moved, filed)
		if filed != moved {
			t.Errorf("flush filed %d entries for %d nodes whose key moved", filed, moved)
		}
		if moved == drained {
			t.Error("every drained node moved: the churn no longer exercises the skip")
		}
		if cached.scores != drained {
			t.Errorf("%d score evaluations for %d drained nodes: the skip must not skip the rescore", cached.scores, drained)
		}
	})
}

// TestScoreCacheAuditCatchesFiledBucket corrupts the filed bucket of a
// clean node — the record flush's unchanged-key skip trusts — and
// expects the audit to say so.
func TestScoreCacheAuditCatchesFiledBucket(t *testing.T) {
	h := newCacheHarness(64, false)
	h.reserve(5, 3, 1, 4)
	h.query(t, 2, core.Demand{Cores: 2})
	h.cs.Cache.filed[5]++
	err := h.cs.Audit()
	if err == nil || !strings.Contains(err.Error(), "clean node 5 filed under bucket") {
		t.Fatalf("audit of a corrupted filed bucket: %v", err)
	}
}

// TestScoreCacheAuditCatchesDirtyCount breaks the bitset's two
// invariants in turn: a population the stored count does not match, and
// a bit past the last node.
func TestScoreCacheAuditCatchesDirtyCount(t *testing.T) {
	h := newCacheHarness(70, false)
	h.query(t, 2, core.Demand{Cores: 2})
	audit := h.cs.Audit
	c := h.cs.Cache
	c.ndirty++
	if err := audit(); err == nil || !strings.Contains(err.Error(), "count says 1") {
		t.Fatalf("audit of a miscounted dirty set: %v", err)
	}
	c.dirty[1] |= 1 << 6 // node 70 of 70
	if err := audit(); err == nil || !strings.Contains(err.Error(), "beyond the cache's 70 nodes") {
		t.Fatalf("audit of a dirty bit past the last node: %v", err)
	}
}

// TestPrepareRejectsDirtySet folds a bucket while a node is dirty —
// what the unchanged-key skip rules out — and expects the panic.
func TestPrepareRejectsDirtySet(t *testing.T) {
	h := newCacheHarness(64, false)
	h.query(t, 2, core.Demand{Cores: 2})
	h.reserve(5, 3, 1, 4)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("prepare folded a bucket with a dirty node pending")
		}
	}()
	h.cs.Cache.prepare(h.cached.Index().Free(5), h.cs.Idx)
}

// TestNewScoreCacheRejectsBadShape covers the shapes the cache's element
// types cannot hold.
func TestNewScoreCacheRejectsBadShape(t *testing.T) {
	for _, shape := range [][2]int{{-1, 28}, {16, 0}, {16, unfiled}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewScoreCache(%d, %d) did not panic", shape[0], shape[1])
				}
			}()
			NewScoreCache(shape[0], shape[1])
		}()
	}
}
