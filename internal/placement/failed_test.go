package placement

import (
	"math/rand"
	"slices"
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
// search cannot (tableFree) and walks every time; every answer must be
// identical. The share of failing queries the table answered is
// asserted, so the test cannot pass by never consulting it.
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
			if failing < 1000 || 2*fromTable < failing {
				t.Errorf("noGrouping=%v seed %d: table answered %d of %d failing queries, want at least half of at least 1000",
					noGrouping, seed, fromTable, failing)
			}
		}
	}
}

// TestFailBoundComparesRaw pins the one subtlety of entry matching: a
// dimension fits ignores (<= 0) must not let an entry that binds it rule
// out a query that does not, in either direction of "ignored".
func TestFailBoundComparesRaw(t *testing.T) {
	st, s := newTestSearch(4)
	for id := 0; id < 4; id++ {
		reserve(st, id, 2, 18, 0, 0) // 2 ways left everywhere
	}
	if s.FindDemand(1, core.Demand{Cores: 4, Ways: 4}) != nil {
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
	if !s.provenShort(1, core.Demand{Cores: 4, Ways: 5, BW: 10}) {
		t.Error("a larger demand is not ruled out by the smaller one's failure")
	}
	// Each released node-slot loosens the bound by one node.
	st.Release(0, Reservation{Cores: 2, Ways: 18})
	if s.provenShort(1, core.Demand{Cores: 4, Ways: 4}) {
		t.Error("the bound survived a release that could have lifted it")
	}
	if !s.provenShort(2, core.Demand{Cores: 4, Ways: 4}) {
		t.Error("one release lifted the bound by more than one node")
	}
	if got := s.FindDemand(1, core.Demand{Cores: 4, Ways: 4}); len(got) != 1 || got[0] != 0 {
		t.Errorf("FindDemand after release = %v, want [0]", got)
	}
}

// TestFailTableBounded checks the table's two size rules: a demand keeps
// one entry however often it fails, and past maxFailBounds distinct
// demands the loosest bound is the one given up.
func TestFailTableBounded(t *testing.T) {
	st, s := newTestSearch(8)
	for id := 0; id < 8; id++ {
		reserve(st, id, 27, 0, 0, 0) // one core left everywhere
	}
	d := core.Demand{Cores: 2, BW: 1, MemGB: 200}
	for i := 0; i < 3; i++ {
		st.Release(0, st.Reserve(0, Reservation{Cores: 1})) // loosen, so the next call walks
		if s.FindDemand(2, d) != nil {
			t.Fatal("2 cores fit on a node with 1 free")
		}
	}
	if len(s.failed) != 1 {
		t.Fatalf("one demand failed three times and holds %d entries, want 1", len(s.failed))
	}
	// Fill the table with distinct, mutually incomparable demands, each
	// remembered at a later release count than the one before.
	for i := 1; i < maxFailBounds; i++ {
		st.Release(0, st.Reserve(0, Reservation{Cores: 1}))
		s.FindDemand(8, core.Demand{Cores: 2, BW: units.GBps(1 + i), MemGB: float64(200 - i)})
	}
	if len(s.failed) != maxFailBounds {
		t.Fatalf("table holds %d entries, want %d", len(s.failed), maxFailBounds)
	}
	// The oldest entry (d) now has the loosest bound; the next distinct
	// failure takes its place and the table does not grow.
	s.FindDemand(8, core.Demand{Cores: 2, IOBW: 5})
	if len(s.failed) != maxFailBounds {
		t.Fatalf("table grew to %d entries past its cap of %d", len(s.failed), maxFailBounds)
	}
	for _, b := range s.failed {
		if b.d == d {
			t.Error("a full table kept its loosest bound and gave up a tighter one")
		}
	}
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
// score cache and search wired as svc.New wires them, the search reading
// through a countingView, plus the queue and the running spans.
type standingCluster struct {
	state   *SimState
	search  *Search
	view    *countingView
	queue   []standingRequest
	running []heldSpan
}

// withReleases puts back the release counter that a countingView's
// embedded NodeView hides from the search.
type withReleases struct {
	*countingView
	releaseCounter
}

func newStandingCluster(remember bool, queue []standingRequest) *standingCluster {
	const nodes = 1024
	spec := hw.DefaultNodeSpec()
	c := &standingCluster{state: NewSimState(spec, nodes), queue: slices.Clone(queue)}
	cache := NewScoreCache(nodes, spec.Cores.Int())
	c.state.SetOnChange(cache.Invalidate)
	c.state.SetOnSpanChange(cache.InvalidateSpan)
	c.view = &countingView{NodeView: c.state}
	c.search = &Search{
		View: c.view, Idx: c.state.Index(), Spec: spec, Nodes: nodes,
		MaxScale: 4, HasIntensive: c.state.HasIntensive, Cache: cache,
	}
	if remember {
		c.search.View = withReleases{c.view, c.state}
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
// one fixed-seed schedule; one search sees the backend's release counter
// and one does not. The answers must be identical query by query, and
// the search that remembers must make at most a fifth of the capacity
// reads. Counting is deterministic, so the gate reads the same on any
// machine; forgetting to count a release makes the answers differ, and
// remembering less makes the reads climb.
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
	if 5*with.view.reads > without.view.reads {
		t.Errorf("remembering failures made %d capacity reads, more than a fifth of the %d made walking every time",
			with.view.reads, without.view.reads)
	}
}
