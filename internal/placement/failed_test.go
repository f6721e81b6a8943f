package placement

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

// TestRememberedFailuresEquivalence is the exactness test of the
// remembered-failure table, in the regime the table exists for: a
// cluster filled until LLC ways and bandwidth bind, then a long seeded
// schedule of rare releases (per node and by span) and refills between
// bursts of failing queries — the same few demands over and over, and
// larger ones that only an entry for a smaller demand can answer. The
// cached search answers from the table; the harness's from-scratch
// search has no cache, so no table, and walks every time; every answer
// must be identical. The entries are exact, so nearly every failing
// query after the first of its demand comes from the table: at least
// 95% must, so the test cannot pass by consulting the table rarely.
func TestRememberedFailuresEquivalence(t *testing.T) {
	demands := []core.Demand{
		{Cores: 8, Ways: 6, BW: 40},
		{Cores: 4, Ways: 8, BW: 25},
		{Cores: 16, Ways: 4, BW: 60},
		{Cores: 2, Ways: 10},
		{Cores: 12, BW: 80},
	}
	for _, noGrouping := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			h := newCacheHarness(128, noGrouping)
			rng := rand.New(rand.NewSource(seed))
			fill := func(id int) {
				h.reserve(id, 1+rng.Intn(6), 3+rng.Intn(5), 10+rng.Intn(30))
			}
			// Fill: a few spans, then single reservations until every
			// node is short of ways or bandwidth for most demands.
			for i := 0; i < 12; i++ {
				h.spanReserve(i, byte(rng.Intn(256)))
			}
			for round := 0; round < 4; round++ {
				for id := 0; id < h.nodes; id++ {
					fill(id)
				}
			}
			failing, fromTable := 0, 0
			for step := 0; step < 400; step++ {
				switch rng.Intn(12) {
				case 0:
					h.release(rng.Intn(h.nodes))
				case 1:
					h.spanRelease()
				case 2, 3:
					fill(rng.Intn(h.nodes))
				case 4:
					h.spanReserve(step, byte(rng.Intn(256)))
				}
				for q := 0; q < 12; q++ {
					d := demands[rng.Intn(len(demands))]
					if rng.Intn(3) == 0 { // asks more of everything: dominated
						d.Cores += 2
						d.Ways++
						d.BW += 5
					}
					n := 1 << rng.Intn(6)
					h.cs.settle()
					known := h.cs.provenShort(n, d)
					if h.query(t, n, d) == nil {
						failing++
						if known {
							fromTable++
						}
					} else if known {
						t.Fatalf("seed %d: table ruled out FindDemand(%d, %+v), which succeeds", seed, n, d)
					}
				}
			}
			t.Logf("noGrouping=%v seed %d: %d of %d failing queries answered from the table (%d entries)",
				noGrouping, seed, fromTable, failing, len(h.cs.failed))
			if failing < 1000 || 100*fromTable < 95*failing {
				t.Errorf("noGrouping=%v seed %d: table answered %d of %d failing queries, want at least 95%% of at least 1000",
					noGrouping, seed, fromTable, failing)
			}
		}
	}
}

// newCachedTestSearch is newTestSearch with a score cache wired the way
// svc.New wires it under SNS — the only searches that remember failures.
func newCachedTestSearch(nodes int) (*SimState, *Search) {
	st, s := newTestSearch(nodes)
	s.Cache = NewScoreCache(nodes, s.Spec.Cores.Int())
	st.SetOnChange(s.Cache.Invalidate)
	st.SetOnSpanChange(s.Cache.InvalidateSpan)
	return st, s
}

// TestFailBoundComparesRaw pins the one subtlety of entry matching: a
// dimension fits ignores (<= 0) must not let an entry that binds it rule
// out a query that does not, in either direction of "ignored". It also
// follows one entry through a release and a reserve of the node that
// joins and leaves its host set.
func TestFailBoundComparesRaw(t *testing.T) {
	st, s := newCachedTestSearch(4)
	for id := 0; id < 4; id++ {
		reserve(st, id, 2, 18, 0, 0) // 2 ways left everywhere
	}
	d := core.Demand{Cores: 4, Ways: 4}
	if s.FindDemand(1, d) != nil {
		t.Fatal("4 ways fit on a node with 2 free")
	}
	// More cores, but no claim on ways: the entry must not answer.
	if got := s.FindDemand(2, core.Demand{Cores: 8}); len(got) != 2 {
		t.Errorf("FindDemand ignoring ways = %v, want 2 nodes", got)
	}
	if got := s.FindDemand(2, core.Demand{Cores: 8, Ways: -1}); len(got) != 2 {
		t.Errorf("FindDemand with negative ways = %v, want 2 nodes", got)
	}
	// Larger in every dimension: answered by the entry, walk or no walk.
	s.settle()
	if !s.provenShort(1, core.Demand{Cores: 4, Ways: 5, BW: 10}) {
		t.Error("a larger demand is not ruled out by the smaller one's failure")
	}
	// A release that lets node 0 host d puts exactly node 0 in the set.
	st.Release(0, Reservation{Cores: 2, Ways: 18})
	s.settle()
	if s.provenShort(1, d) {
		t.Error("the entry survived a release that lifted it")
	}
	if !s.provenShort(2, d) {
		t.Error("one release added more than one node to the entry")
	}
	if got := s.FindDemand(1, d); len(got) != 1 || got[0] != 0 {
		t.Errorf("FindDemand after release = %v, want [0]", got)
	}
	// Taking the node back empties the set again.
	reserve(st, 0, 2, 18, 0, 0)
	s.settle()
	if !s.provenShort(1, d) {
		t.Error("the entry did not take node 0 back out")
	}
}

// TestFailTableBounded checks the table's size rules: a demand that
// keeps failing keeps its one entry and is answered from it, and past
// maxFailEntries distinct demands the widest entry is the one given up.
func TestFailTableBounded(t *testing.T) {
	st, s := newCachedTestSearch(8)
	for id := 0; id < 8; id++ {
		reserve(st, id, 27, 0, 0, 0) // one core left everywhere
	}
	// Every node can host d; nine of them cannot be found.
	d := core.Demand{Cores: 1, BW: 1}
	for i := 0; i < 3; i++ {
		if s.FindDemand(9, d) != nil {
			t.Fatal("9 nodes found on an 8-node cluster")
		}
	}
	if len(s.failed) != 1 || s.failed[0].count != 8 {
		t.Fatalf("one demand failed three times and holds %d entries, want 1 of 8 hosts", len(s.failed))
	}
	// Fill the table with distinct, mutually incomparable demands no
	// node can host.
	for i := 1; i < maxFailEntries; i++ {
		s.FindDemand(1, core.Demand{Cores: 2, BW: units.GBps(1 + i), MemGB: float64(200 - i)})
	}
	if len(s.failed) != maxFailEntries {
		t.Fatalf("table holds %d entries, want %d", len(s.failed), maxFailEntries)
	}
	// d's entry is the widest; the next distinct failure takes its place,
	// in its bitset, and the table does not grow.
	widest := &s.failed[0].hosts[0]
	s.FindDemand(1, core.Demand{Cores: 2, IOBW: 5})
	if len(s.failed) != maxFailEntries {
		t.Fatalf("table grew to %d entries past its cap of %d", len(s.failed), maxFailEntries)
	}
	for _, b := range s.failed {
		if b.d == d {
			t.Error("a full table kept its widest entry and gave up a narrower one")
		}
	}
	if &s.failed[maxFailEntries-1].hosts[0] != widest {
		t.Error("the new entry did not reuse the evicted entry's bitset")
	}
}

// TestFailTableAuditCatchesUninvalidatedChange changes one node's free
// memory behind the score cache's back — the mutation the dirty set
// never hears of — and expects Search.Audit to name the entry that now
// disagrees with the node. Free memory is not part of the score, so the
// cache's own audit cannot see it; invalidating the node exempts it
// until the next settle, which takes it into the host set.
func TestFailTableAuditCatchesUninvalidatedChange(t *testing.T) {
	st, s := newCachedTestSearch(8)
	for id := 0; id < 8; id++ {
		reserve(st, id, 4, 0, 0, 120) // 8 GB left everywhere
	}
	d := core.Demand{Cores: 4, MemGB: 64}
	if s.FindDemand(1, d) != nil {
		t.Fatal("64 GB fit on a node with 8 free")
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("audit of an exact table: %v", err)
	}
	st.freeMem[3] = st.Spec().MemoryGB
	err := s.Audit()
	if err == nil || !strings.Contains(err.Error(), "clean node 3 can host") {
		t.Fatalf("audit after an uninvalidated change: %v", err)
	}
	s.Cache.Invalidate(3)
	if err := s.Audit(); err != nil {
		t.Fatalf("audit with the changed node dirty: %v", err)
	}
	if got := s.FindDemand(1, d); !slices.Equal(got, []int{3}) {
		t.Errorf("FindDemand after the change = %v, want [3]", got)
	}
}

// TestFailTableDropsUnusedEntries checks the eviction rule: under a dirty
// set wide enough that two settles outgrow one walk, an entry that
// answers a query at every settle is kept and an entry that answers
// none is dropped, its bitset kept for the next entry.
func TestFailTableDropsUnusedEntries(t *testing.T) {
	st, s := newCachedTestSearch(64)
	for id := 0; id < 64; id++ {
		reserve(st, id, 2, 18, 80, 0) // 2 ways and 38 GB/s left everywhere
	}
	asked := core.Demand{Cores: 4, Ways: 4}
	unasked := core.Demand{Cores: 4, BW: 50}
	if s.FindDemand(1, asked) != nil || s.FindDemand(1, unasked) != nil {
		t.Fatal("a demand fits that no node can host")
	}
	if len(s.failed) != 2 {
		t.Fatalf("two failed demands hold %d entries", len(s.failed))
	}
	for round := 0; round < 2; round++ {
		for id := 0; id < 40; id++ { // dirty 40 of the 64 nodes a walk visits
			st.Release(id, st.Reserve(id, Reservation{Cores: 1}))
		}
		if s.FindDemand(1, asked) != nil {
			t.Fatal("the asked demand found a node")
		}
	}
	if len(s.failed) != 1 || s.failed[0].d != asked {
		t.Fatalf("after two wide settles the table holds %+v, want the asked entry alone", s.failed)
	}
	if len(s.spare) != 1 {
		t.Errorf("the dropped entry left %d bitsets to reuse, want 1", len(s.spare))
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
}

// failingDemands are the demands FuzzRememberedFailures asks for on its
// filled cluster. Ways, bandwidth, memory and file-system bandwidth each
// bind one of them; most fail for every footprint, a few only for wide
// ones; each of the second, fourth and sixth dominates an earlier one;
// and the last leaves ways unbound by a negative count, so raw
// comparison is fuzzed too.
var failingDemands = [...]core.Demand{
	{Cores: 2, Ways: 5},
	{Cores: 4, Ways: 6, BW: 10},
	{Cores: 1, BW: 45},
	{Cores: 2, BW: 50, MemGB: 8},
	{Cores: 1, MemGB: 100},
	{Cores: 2, Ways: 5, MemGB: 100, IOBW: 1},
	{Cores: 1, IOBW: 1.5},
	{Cores: 3, Ways: -1, BW: 45},
}

// stepFailing decodes one fuzz byte for FuzzRememberedFailures: by its
// low two bits a release or a reservation of one node, a span reserve
// or release, or a query for up to eight nodes under one of
// failingDemands.
func (h *cacheHarness) stepFailing(t *testing.T, i int, op byte) {
	t.Helper()
	id := (i*31 + int(op)*17) % h.nodes
	switch op & 3 {
	case 0:
		h.release(id)
	case 1:
		h.reserve(id, 1+int(op>>6), int(op>>2)&7, int(op>>3)%40)
	case 2:
		if op&4 != 0 {
			h.spanRelease()
		} else {
			h.spanReserve(i, op)
		}
	default:
		h.query(t, 1+int(op>>5), failingDemands[int(op>>2)&7])
	}
}

// FuzzRememberedFailures fuzzes the remembered-failure table where it
// does its work: a 64-node harness is filled until most nodes are short
// of ways, bandwidth or memory, so most queries fail and keep failing,
// and the schedule then moves nodes in and out of the entries' host
// sets, widens the dirty set with spans until unasked entries are
// dropped, and asks failing and dominated demands again. Every answer
// must equal the from-scratch search's, and the table must pass its
// audit after every query.
func FuzzRememberedFailures(f *testing.F) {
	// Ask every demand, free two nodes, ask again, take one back.
	stand := []byte{
		0x03, 0x07, 0x0b, 0x0f, 0x73, 0x33, 0x17, 0xdb, 0x5b, 0x1f,
		0x00, 0x04, 0x03, 0x07, 0x0b, 0x73, 0xdb, 0x1f, 0x11, 0x03, 0x17,
	}
	f.Add(stand, false)
	f.Add(stand, true)
	// Wide spans reserved and released between queries for one demand
	// only, so the others' entries outgrow their walks and are dropped,
	// then asked for again.
	f.Add([]byte{
		0x03, 0x0b, 0x73,
		0x72, 0x76, 0xea, 0xee, 0x72, 0x76, 0x03,
		0x72, 0x76, 0xea, 0xee, 0x72, 0x76, 0x03,
		0x72, 0x76, 0xea, 0xee, 0x72, 0x76, 0x03,
		0x0b, 0x73, 0x1f,
	}, false)
	// Every demand for eight nodes, a few releases, again.
	f.Add([]byte{
		0xe3, 0xe7, 0xeb, 0xef, 0xf3, 0xf7, 0xfb, 0xff, 0x00, 0x20,
		0x40, 0xe3, 0xf3, 0xfb, 0xff,
	}, true)
	f.Fuzz(func(t *testing.T, ops []byte, noGrouping bool) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		h := newCacheHarness(64, noGrouping)
		for id := 0; id < h.nodes; id++ {
			// One or two ways left (four on every seventh node), 9 to
			// 38 GB/s, 88 GB of memory (128 on every sixteenth) and
			// 1 GB/s of file-system bandwidth (2 on every eighth).
			ways := 18 + id%2
			if id%7 == 0 {
				ways = 16
			}
			h.reserve(id, 2+id%4, ways, 80+id%30)
			r := Reservation{MemGB: 40, IOBW: 1}
			if id%16 == 0 {
				r.MemGB = 0
			}
			if id%8 == 0 {
				r.IOBW = 0
			}
			h.held[id] = append(h.held[id], h.cached.Reserve(id, r))
			h.plain.Reserve(id, r)
		}
		for i, op := range ops {
			h.stepFailing(t, i, op)
		}
		h.query(t, 1, failingDemands[0])
	})
}

// standingRequest is one queued job of the standing-queue gate: a base
// footprint and a per-node demand at scale 1. Like placeSNS it is tried
// widest scale first, each scale spreading the same work over more nodes
// with proportionally less demand on each.
type standingRequest struct {
	n int
	d core.Demand
}

func (r standingRequest) at(k int) (int, core.Demand) {
	return r.n * k, core.Demand{
		Cores: (r.d.Cores + k - 1) / k,
		Ways:  (r.d.Ways + units.Ways(k) - 1) / units.Ways(k),
		BW:    r.d.BW / units.GBps(k),
	}
}

// standingCluster is one side of the gate: a 1,024-node state with its
// search reading through a countingView — with a score cache wired as
// svc.New wires it, or with none — plus the queue and the running spans.
type standingCluster struct {
	state   *SimState
	search  *Search
	view    *countingView
	queue   []standingRequest
	running []heldSpan
}

func newStandingCluster(cached bool, queue []standingRequest) *standingCluster {
	const nodes = 1024
	spec := hw.DefaultNodeSpec()
	c := &standingCluster{state: NewSimState(spec, nodes), queue: slices.Clone(queue)}
	c.view = &countingView{NodeView: c.state}
	c.search = &Search{
		View: c.view, Idx: c.state.Index(), Spec: spec, Nodes: nodes,
		MaxScale: 4, HasIntensive: c.state.HasIntensive,
	}
	if cached {
		c.search.Cache = NewScoreCache(nodes, spec.Cores.Int())
		c.state.SetOnChange(c.search.Cache.Invalidate)
		c.state.SetOnSpanChange(c.search.Cache.InvalidateSpan)
	}
	return c
}

// round is one scheduling event: the oldest running job finishes (one
// span release), then every queued request is retried in order and
// launched if any of its scales fits. It returns every FindDemand answer
// in call order.
func (c *standingCluster) round() [][]int {
	if len(c.running) > 0 {
		c.state.ReleaseSpan(c.running[0].ids, c.running[0].r)
		c.running = c.running[1:]
	}
	var answers [][]int
	kept := c.queue[:0]
	for _, req := range c.queue {
		placed := false
		for k := 4; k >= 1 && !placed; k /= 2 {
			n, d := req.at(k)
			ids := c.search.FindDemand(n, d)
			answers = append(answers, ids)
			if ids != nil {
				r := Reservation{Cores: d.Cores, Ways: d.Ways, BW: d.BW}
				c.state.ReserveSpan(ids, r)
				c.running = append(c.running, heldSpan{ids, r})
				placed = true
			}
		}
		if !placed {
			kept = append(kept, req)
		}
	}
	c.queue = kept
	return answers
}

// TestStandingQueueReads is the work gate of remembered failures, on the
// regime they exist for: a queue that stands while the cluster stays
// full, every request retried at every event. Two identical clusters run
// one fixed-seed schedule; one search has a score cache and so remembers
// failures, the other has neither and walks every time. The answers must
// be identical query by query, and the search that remembers must make
// at most a twentieth of the capacity reads, its upkeep included.
// Counting is deterministic, so the gate reads the same on any machine;
// an entry that goes stale makes the answers differ, and remembering
// less makes the reads climb.
func TestStandingQueueReads(t *testing.T) {
	demands := []core.Demand{
		{Cores: 16, Ways: 12, BW: 70},
		{Cores: 16, Ways: 8, BW: 100},
		{Cores: 12, Ways: 16, BW: 40},
		{Cores: 8, Ways: 10, BW: 90},
		{Cores: 16, Ways: 14, BW: 30},
	}
	rng := rand.New(rand.NewSource(17))
	queue := make([]standingRequest, 640)
	for i := range queue {
		queue[i] = standingRequest{n: 1 << rng.Intn(4), d: demands[rng.Intn(len(demands))]}
	}
	with, without := newStandingCluster(true, queue), newStandingCluster(false, queue)
	standing := 0
	for round := 0; round < 100; round++ {
		got, want := with.round(), without.round()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d queries with the table, %d without", round, len(got), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("round %d query %d: %v with the table, %v without", round, i, got[i], want[i])
			}
		}
		if round == 1 {
			standing = len(with.queue)
		}
	}
	t.Logf("queue of %d after the fill, %d after 100 rounds; %d capacity reads remembering failures, %d walking every time (%.1fx)",
		standing, len(with.queue), with.view.reads, without.view.reads, float64(without.view.reads)/float64(with.view.reads))
	if standing < 150 || len(with.queue) < 50 {
		t.Fatalf("queue fell from %d to %d: the schedule no longer holds a standing queue", standing, len(with.queue))
	}
	if 20*with.view.reads > without.view.reads {
		t.Errorf("remembering failures made %d capacity reads, more than a twentieth of the %d made walking every time",
			with.view.reads, without.view.reads)
	}
}
