package placement

import (
	"testing"

	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"

	"spreadnshare/internal/units"
)

// newTestSearch builds an 8-node default-hardware cluster backend, the
// same shape as hw.DefaultClusterSpec.
func newTestSearch(nodes int) (*SimState, *Search) {
	spec := hw.DefaultNodeSpec()
	st := NewSimState(spec, nodes)
	s := &Search{
		View: st, Idx: st.Index(), Spec: spec, Nodes: nodes,
		MaxScale: 8, HasIntensive: st.HasIntensive,
	}
	return st, s
}

func reserve(st *SimState, id, cores, ways int, bw, mem float64) {
	st.Reserve(id, Reservation{Cores: cores, Ways: units.WaysOf(ways), BW: units.GBpsOf(bw), MemGB: mem})
}

func TestFindDemandBasic(t *testing.T) {
	_, s := newTestSearch(8)
	got := s.FindDemand(2, core.Demand{Cores: 16, Ways: 4, BW: 30})
	if len(got) != 2 {
		t.Fatalf("FindDemand = %v, want 2 nodes", got)
	}
}

func TestFindDemandInsufficient(t *testing.T) {
	st, s := newTestSearch(8)
	if got := s.FindDemand(9, core.Demand{Cores: 4}); got != nil {
		t.Errorf("FindDemand found %v on an 8-node cluster, want nil", got)
	}
	if got := s.FindDemand(0, core.Demand{Cores: 4}); got != nil {
		t.Errorf("FindDemand(0) = %v, want nil", got)
	}
	// Fill every node's cores.
	for i := 0; i < 8; i++ {
		reserve(st, i, 28, 0, 0, 0)
	}
	if got := s.FindDemand(1, core.Demand{Cores: 1}); got != nil {
		t.Errorf("FindDemand on full cluster = %v, want nil", got)
	}
}

func TestFindDemandRespectsWaysAndBW(t *testing.T) {
	st, s := newTestSearch(8)
	// Node 0: 18 ways taken; node 1: 100 GB/s reserved.
	reserve(st, 0, 2, 18, 0, 0)
	reserve(st, 1, 2, 0, 100, 0)
	got := s.FindDemand(8, core.Demand{Cores: 4, Ways: 4, BW: 30})
	if got != nil {
		t.Errorf("FindDemand = %v, want nil (nodes 0 and 1 infeasible)", got)
	}
	got = s.FindDemand(6, core.Demand{Cores: 4, Ways: 4, BW: 30})
	if len(got) != 6 {
		t.Fatalf("FindDemand = %v, want the 6 clean nodes", got)
	}
	for _, id := range got {
		if id == 0 || id == 1 {
			t.Errorf("FindDemand selected infeasible node %d", id)
		}
	}
}

func TestFindDemandPrefersSingleGroupTightFit(t *testing.T) {
	st, s := newTestSearch(8)
	// Nodes 0,1: 12 cores free (16 used); nodes 2..7 idle. A 2-node
	// 8-core job fits in the tight group; SNS should use it and leave
	// the idle group unfragmented.
	for i := 0; i < 2; i++ {
		reserve(st, i, 16, 4, 20, 0)
	}
	got := s.FindDemand(2, core.Demand{Cores: 8, Ways: 4, BW: 20})
	if len(got) != 2 {
		t.Fatalf("FindDemand = %v, want 2", got)
	}
	for _, id := range got {
		if id != 0 && id != 1 {
			t.Errorf("FindDemand picked idle node %d; want the partially-used group", id)
		}
	}
}

func TestFindDemandFallsBackAcrossGroups(t *testing.T) {
	st, s := newTestSearch(8)
	// Create 4 groups of 2 nodes with distinct idle counts; ask for 5
	// nodes, more than any single group holds.
	uses := []int{0, 0, 4, 4, 8, 8, 12, 12}
	for i, u := range uses {
		if u == 0 {
			continue
		}
		reserve(st, i, u, 0, 0, 0)
	}
	got := s.FindDemand(5, core.Demand{Cores: 8})
	if len(got) != 5 {
		t.Fatalf("FindDemand = %v, want 5 across groups", got)
	}
	// The idlest 5 by score should be picked: the two idle nodes first.
	seen := map[int]bool{}
	for _, id := range got {
		seen[id] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("whole-cluster fallback did not pick idlest nodes: %v", got)
	}
}

func TestFindDemandUngrouped(t *testing.T) {
	st, s := newTestSearch(8)
	s.NoGrouping = true
	// Partially fill node 0 so scores differ.
	reserve(st, 0, 20, 8, 0, 0)
	got := s.FindDemand(3, core.Demand{Cores: 4, Ways: 2, BW: 10})
	if len(got) != 3 {
		t.Fatalf("ungrouped FindDemand = %v, want 3 nodes", got)
	}
	for _, id := range got {
		if id == 0 {
			t.Error("ungrouped search picked the loaded node over idle ones")
		}
	}
	if got := s.FindDemand(0, core.Demand{Cores: 4}); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
	if got := s.FindDemand(99, core.Demand{Cores: 4}); got != nil {
		t.Errorf("infeasible count returned %v", got)
	}
	// Memory-infeasible nodes are filtered.
	reserve(st, 1, 2, 0, 0, 120)
	got = s.FindDemand(7, core.Demand{Cores: 4, MemGB: 20})
	if len(got) != 7 {
		t.Fatalf("want 7 memory-feasible nodes, got %v", got)
	}
	for _, id := range got {
		if id == 1 {
			t.Error("memory-full node selected")
		}
	}
}

func TestPlaceCEDedicatesIdleNodes(t *testing.T) {
	st, s := newTestSearch(8)
	pl := s.Place(CE, Request{Procs: 40, BaseNodes: 2, MultiNode: true})
	if pl == nil || len(pl.Nodes) != 2 || !pl.Exclusive || pl.K != 1 {
		t.Fatalf("CE plan = %+v, want 2 exclusive nodes at K=1", pl)
	}
	if pl.Cores[0]+pl.Cores[1] != 40 {
		t.Errorf("CE cores = %v, want EvenSplit of 40", pl.Cores)
	}
	// An exclusive reservation takes the whole node.
	r := st.Reserve(pl.Nodes[0], Reservation{Exclusive: true})
	if r.Cores != 28 || st.Index().Free(pl.Nodes[0]) != 0 {
		t.Errorf("exclusive take = %+v, free = %d", r, st.Index().Free(pl.Nodes[0]))
	}
	// With a node short, CE fails.
	for i := 2; i < 8; i++ {
		reserve(st, i, 1, 0, 0, 0)
	}
	reserve(st, 1, 1, 0, 0, 0)
	if pl := s.Place(CE, Request{Procs: 40, BaseNodes: 2, MultiNode: true}); pl != nil {
		t.Errorf("CE placed on a 1-idle-node cluster: %+v", pl)
	}
}

func TestPlaceCSPrefersCompactAndGrowsFootprint(t *testing.T) {
	st, s := newTestSearch(8)
	// Nodes 0,1 have 16 free cores; the rest are idle. A 16-core job
	// should land on the fullest feasible node (tightest first).
	reserve(st, 0, 12, 0, 0, 0)
	reserve(st, 1, 12, 0, 0, 0)
	pl := s.Place(CS, Request{Procs: 16, BaseNodes: 1, MultiNode: true})
	if pl == nil || len(pl.Nodes) != 1 || pl.Nodes[0] != 0 || pl.K != 1 {
		t.Fatalf("CS plan = %+v, want node 0 at K=1", pl)
	}
	// When no node has 16 free cores, CS doubles the footprint.
	for i := 0; i < 8; i++ {
		st.Reserve(i, Reservation{Cores: 20 - st.UsedCores(i)})
	}
	pl = s.Place(CS, Request{Procs: 16, BaseNodes: 1, MultiNode: true})
	if pl == nil || pl.K != 2 || len(pl.Nodes) != 2 {
		t.Fatalf("CS growth plan = %+v, want K=2 over 2 nodes", pl)
	}
}

// flatProfile builds a profile whose scale K halves the exclusive time
// (perfectly scaling) with flat unit IPC/BW curves.
func flatProfile(ks ...int) *profiler.Profile {
	p := &profiler.Profile{Program: "X", Procs: 16, Class: profiler.Scaling}
	for _, k := range ks {
		ipc := make([]float64, 21)
		bw := make([]float64, 21)
		for w := 1; w <= 20; w++ {
			ipc[w] = 1
			bw[w] = 10
		}
		p.Scales = append(p.Scales, profiler.ScaleProfile{
			K: k, Nodes: k, CoresPerNode: 16 / k, TimeSec: 100 / float64(k),
			IPCByWay: ipc, BWByWay: bw,
		})
	}
	return p
}

func TestPlaceSNSChasesFastestScale(t *testing.T) {
	_, s := newTestSearch(8)
	pl := s.Place(SNS, Request{Procs: 16, BaseNodes: 1, MultiNode: true, Alpha: 0.9,
		Profile: flatProfile(1, 2, 4)})
	if pl == nil || pl.K != 4 || len(pl.Nodes) != 4 {
		t.Fatalf("SNS plan = %+v, want the fastest profiled scale K=4", pl)
	}
	if pl.Ways == 0 || pl.BW == 0 {
		t.Errorf("SNS plan carries no (w, b) reservation: %+v", pl)
	}
}

func TestPlaceSNSNilProfileFallsBackToCS(t *testing.T) {
	_, s := newTestSearch(8)
	pl := s.Place(SNS, Request{Procs: 16, BaseNodes: 1, MultiNode: true})
	if pl == nil || pl.K != 1 || pl.Ways != 0 || pl.Exclusive {
		t.Fatalf("unprofiled SNS plan = %+v, want CS-style", pl)
	}
}

func TestPlaceTwoSlotPairsIntensiveWithNonIntensive(t *testing.T) {
	st, s := newTestSearch(2)
	// First intensive job takes one half-slot of node 0.
	pl := s.Place(TwoSlot, Request{Procs: 14, BaseNodes: 1, MultiNode: true, Intensive: true})
	if pl == nil || len(pl.Nodes) != 1 || pl.Nodes[0] != 0 {
		t.Fatalf("first two-slot plan = %+v", pl)
	}
	st.Reserve(0, Reservation{Cores: 14, Intensive: true})
	// A second intensive job must avoid node 0.
	pl = s.Place(TwoSlot, Request{Procs: 14, BaseNodes: 1, MultiNode: true, Intensive: true})
	if pl == nil || pl.Nodes[0] != 1 {
		t.Fatalf("second intensive plan = %+v, want node 1", pl)
	}
	// A non-intensive job may share node 0.
	pl = s.Place(TwoSlot, Request{Procs: 14, BaseNodes: 1, MultiNode: true})
	if pl == nil || pl.Nodes[0] != 0 {
		t.Fatalf("non-intensive plan = %+v, want node 0's free half", pl)
	}
}

// TestFootprintCoresAreSharedAndStable pins the constant table behind a
// footprint plan's Cores: plans of one per-node count share a backing
// run (no vector per Place), every plan is exactly as long as its node
// list, and a plan handed out before a wider Place replaced the run
// still reads its own values.
func TestFootprintCoresAreSharedAndStable(t *testing.T) {
	_, s := newTestSearch(64)
	req := func(n int) Request { return Request{BaseNodes: n, CoresPerNode: 16, MultiNode: true} }
	for _, p := range []Policy{CE, CS, SNS} {
		r := req(4)
		if p == SNS {
			r.Alpha, r.Profile = 0.9, flatProfile(1)
		}
		first := s.Place(p, r)
		again := s.Place(p, r)
		if first == nil || again == nil {
			t.Fatalf("%s: 4-node footprint not placed on an idle cluster", p)
		}
		if len(first.Cores) != len(first.Nodes) || cap(first.Cores) != len(first.Nodes) {
			t.Fatalf("%s: len/cap(Cores) = %d/%d for %d nodes", p, len(first.Cores), cap(first.Cores), len(first.Nodes))
		}
		if &first.Cores[0] != &again.Cores[0] {
			t.Errorf("%s: two plans of one per-node count got separate core vectors", p)
		}
		want := first.Cores[0]
		wide := s.Place(p, Request{BaseNodes: 64, CoresPerNode: want, MultiNode: true, Alpha: r.Alpha, Profile: r.Profile})
		if wide == nil || len(wide.Cores) != 64 {
			t.Fatalf("%s: 64-node footprint plan = %+v", p, wide)
		}
		for i, v := range first.Cores {
			if v != want {
				t.Fatalf("%s: Cores[%d] = %d after a wider Place, was %d", p, i, v, want)
			}
		}
		for i, v := range wide.Cores {
			if v != want {
				t.Fatalf("%s: wide Cores[%d] = %d, want %d", p, i, v, want)
			}
		}
	}
	// Process-based plans keep a vector of their own: sched retains it.
	a := s.Place(CS, Request{Procs: 16, BaseNodes: 1, MultiNode: true})
	b := s.Place(CS, Request{Procs: 16, BaseNodes: 1, MultiNode: true})
	if a == nil || b == nil || &a.Cores[0] == &b.Cores[0] {
		t.Errorf("process-based plans share a core vector: %+v %+v", a, b)
	}
}

// TestFailedPlaceAllocs is the allocation gate on an attempt. On a cluster
// where every node has cores free but neither the memory nor the ways any
// rung asks for, Place walks the whole scale ladder under every policy,
// for both request shapes, and returns nil having allocated nothing: the
// ladder is memoised, a rung sizes its demand by arithmetic and collects
// candidates in scratch. A Place that succeeds allocates what it hands
// over and no more — a node list, a core vector, the plan.
func TestFailedPlaceAllocs(t *testing.T) {
	st, s := newTestSearch(8)
	s.Cache = NewScoreCache(8, s.Spec.Cores.Int())
	st.SetOnChange(s.Cache.Invalidate)
	for id := 0; id < 8; id++ {
		reserve(st, id, 4, 19, 10, st.Spec().MemoryGB-1) // 24 cores, 1 way and 1 GB left
	}
	prof := flatProfile(1, 2, 4)
	shapes := map[string]Request{
		"process":   {Procs: 16, BaseNodes: 1, MemGBPerProc: 1, MultiNode: true, Alpha: 0.9, Profile: prof},
		"footprint": {BaseNodes: 1, CoresPerNode: 16, MemGBPerProc: 1, MultiNode: true, Alpha: 0.9, Profile: prof},
	}
	for name, req := range shapes {
		for _, p := range []Policy{CE, CS, SNS} {
			if pl := s.Place(p, req); pl != nil { // the warm call
				t.Fatalf("%s %s: placed %+v on a cluster with no room", p, name, pl)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if s.Place(p, req) != nil {
					t.Fatal("placed on a cluster with no room")
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s: a failed Place allocates %.1f objects, want 0", p, name, allocs)
			}
		}
	}

	_, s = newTestSearch(8)
	s.Cache = NewScoreCache(8, s.Spec.Cores.Int())
	req := shapes["process"]
	for _, p := range []Policy{CE, CS, SNS} {
		if pl := s.Place(p, req); pl == nil {
			t.Fatalf("%s: not placed on an idle cluster", p)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if s.Place(p, req) == nil {
				t.Fatal("not placed on an idle cluster")
			}
		})
		if allocs > 3 {
			t.Errorf("%s: a successful process-based Place allocates %.1f objects, want at most 3 (node list, core vector, plan)", p, allocs)
		}
	}
}
