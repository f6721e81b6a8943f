package placement

import (
	"testing"

	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

// The index's work gate: at Figure 20's largest cluster (32,768 nodes)
// the indexed candidate search must read at most half the capacities a
// linear full-cluster scan reads per placement pass. The linear
// reference reproduces the pre-refactor core.FindNodes shape — one O(N)
// sweep bucketing nodes by free cores, then the same
// tightest-group-first selection — so the comparison isolates the index,
// not the selection policy.

const speedupNodes = 32768

// newSpeedupState builds the gate's cluster: node i has i*5 mod 28 cores
// in use (5 is coprime with 28, so occupancy scatters uniformly over all
// free-core buckets — the fragmented steady state a long replay reaches).
func newSpeedupState(tb testing.TB) (*SimState, *Search) {
	tb.Helper()
	spec := hw.DefaultNodeSpec()
	state := NewSimState(spec, speedupNodes)
	for id := 0; id < speedupNodes; id++ {
		if use := (id * 5) % spec.Cores.Int(); use > 0 {
			state.Reserve(id, Reservation{Cores: use})
		}
	}
	return state, &Search{
		View:  state,
		Idx:   state.Index(),
		Spec:  spec,
		Nodes: speedupNodes,
	}
}

// linearFindDemand is the reference implementation: one pass over every
// node, bucketing feasible candidates by free-core count, then the same
// ascending-bucket, idlest-first rule FindDemand applies over the index.
// Semantics match FindDemand exactly, but nothing of its body is shared:
// the enumeration is O(cluster) instead of O(matching buckets), and the
// n idlest come out of selectIdlest's bounded heap, not a sorted walk or
// sortRuns.
func linearFindDemand(s *Search, n int, d core.Demand) []int {
	if n <= 0 {
		return nil
	}
	minFree := d.Cores
	if minFree < 0 {
		minFree = 0
	}
	buckets := make([][]int, s.Spec.Cores.Int()+1)
	for id := 0; id < s.Nodes; id++ {
		f := s.Idx.Free(id)
		if f >= minFree && s.fits(nil, id, d) {
			buckets[f] = append(buckets[f], id)
		}
	}
	var all []int
	for f := minFree; f <= s.Spec.Cores.Int(); f++ {
		if len(buckets[f]) == 0 {
			continue
		}
		if !s.NoGrouping && len(buckets[f]) >= n {
			return selectIdlest(s, buckets[f], n)
		}
		all = append(all, buckets[f]...)
	}
	if len(all) < n {
		return nil
	}
	return selectIdlest(s, all, n)
}

// scoredNode pairs a candidate with its selection score.
type scoredNode struct {
	id    int
	score float64
}

// selectIdlest returns up to n node ids from candidates with the lowest
// score, ties broken by id. The (score, id) order is total, so the
// result does not depend on candidate order, and the selection runs as
// a bounded max-heap (worst-of-the-best at the root) in O(C log n) — the
// kernel's selection before FindDemand took its candidates in sorted
// order, kept as the reference that order is checked against.
func selectIdlest(s *Search, candidates []int, n int) []int {
	beta := s.beta()
	// after reports a ranking after b in the ascending (score, id) order.
	after := func(a, b scoredNode) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id > b.id
	}
	var h []scoredNode
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
	for _, id := range candidates {
		c := scoredNode{id: id, score: nodeScoreOf(s.View, s.Spec, id, beta)}
		if len(h) < n {
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
	// Drain the heap: each pop yields the worst remaining pick, so
	// filling the result back to front leaves it in ascending
	// (score, id) order.
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

var speedupDemand = core.Demand{Cores: 16, Ways: 4, BW: 30}

func TestLinearReferenceAgrees(t *testing.T) {
	_, s := newSpeedupState(t)
	for _, n := range []int{1, 64, 1024} {
		got := s.FindDemand(n, speedupDemand)
		want := linearFindDemand(s, n, speedupDemand)
		if len(got) != len(want) {
			t.Fatalf("n=%d: indexed found %d nodes, linear %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: indexed %v != linear %v", n, got[:i+1], want[:i+1])
			}
		}
	}
}

// countingView wraps a Search's NodeView and counts what the kernel
// reads through it, which is how the work gates price a search without
// a clock: a score evaluation is one UsedCores call (nodeScoreOf reads
// it once per score, the cache flush once per drained node whether it
// evaluates the score or reuses its neighbour's, and nothing else
// does), a capacity read is one call of a Free* method (the feasibility
// checks of fits). A wrapped view is not a *SimState, so the kernel
// reads it through the interface.
type countingView struct {
	NodeView
	scores, reads int
}

func (v *countingView) UsedCores(id int) int {
	v.scores++
	return v.NodeView.UsedCores(id)
}

func (v *countingView) FreeWays(id int) units.Ways {
	v.reads++
	return v.NodeView.FreeWays(id)
}

func (v *countingView) FreeBW(id int) units.GBps {
	v.reads++
	return v.NodeView.FreeBW(id)
}

func (v *countingView) FreeMem(id int) float64 {
	v.reads++
	return v.NodeView.FreeMem(id)
}

func (v *countingView) FreeIO(id int) units.GBps {
	v.reads++
	return v.NodeView.FreeIO(id)
}

// TestIndexedSearchReads is the index's gate: over the three footprints
// TestLinearReferenceAgrees checks, FindDemand must answer with at most
// half the capacity reads of the linear sweep, or the CoreIndex is not
// paying for its bookkeeping. Counting is deterministic, so the gate
// reads the same on any machine; the linear side's free-core lookups go
// to the index, not the view, which only understates its cost.
func TestIndexedSearchReads(t *testing.T) {
	_, s := newSpeedupState(t)
	view := &countingView{NodeView: s.View}
	s.View = view
	reads := func(find func(n int) []int) int {
		view.reads = 0
		for _, n := range []int{1, 64, 1024} {
			if find(n) == nil {
				t.Fatalf("n=%d: no placement", n)
			}
		}
		return view.reads
	}
	indexed := reads(func(n int) []int { return s.FindDemand(n, speedupDemand) })
	linear := reads(func(n int) []int { return linearFindDemand(s, n, speedupDemand) })
	t.Logf("indexed %d capacity reads, linear %d (%.1fx)", indexed, linear, float64(linear)/float64(indexed))
	if 2*indexed > linear {
		t.Errorf("indexed search made %d capacity reads, more than half the linear scan's %d", indexed, linear)
	}
}
