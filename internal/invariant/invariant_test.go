package invariant

import (
	"strings"
	"testing"

	"spreadnshare/internal/app"
	"spreadnshare/internal/cluster"
	"spreadnshare/internal/core"
	"spreadnshare/internal/exec"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
)

// mustPanic asserts fn dies with an "invariant:" message containing
// substr.
func mustPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "invariant: ") || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v; want invariant violation containing %q", r, substr)
		}
	}()
	fn()
}

func TestActiveDefaultsOnUnderTest(t *testing.T) {
	if !Active() {
		t.Fatal("Active() false inside a test binary")
	}
	Disable()
	if Active() {
		t.Error("Active() true after Disable")
	}
	Enable()
	if !Active() {
		t.Error("Active() false after Enable")
	}
	mode.Store(0) // restore the default for other tests
}

func TestBeginStride(t *testing.T) {
	a := New("t")
	a.Stride = 4
	hits := 0
	for i := 0; i < 16; i++ {
		if a.Begin() {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("stride 4 sampled %d of 16 points, want 4", hits)
	}
}

func TestCheckSimStateCleanAndOverReserve(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	s := placement.NewSimState(spec, 4)
	a := New("t")
	res := s.Reserve(1, placement.Reservation{Cores: 4, Ways: 6, BW: 30})
	a.CheckSimState(s) // a legal reservation must pass
	s.Release(1, res)
	a.CheckSimState(s)

	// Over-reserving ways drives the free counter negative: the class
	// of bug the search's feasibility checks exist to prevent.
	s.Reserve(2, placement.Reservation{Cores: 1, Ways: spec.LLCWays + 3})
	mustPanic(t, "free ways", func() { a.CheckSimState(s) })
}

func TestCheckSimStateCatchesBandwidthLeak(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	s := placement.NewSimState(spec, 2)
	a := New("t")
	// Releasing a reservation that was never taken inflates free
	// bandwidth beyond the node's peak.
	s.Release(0, placement.Reservation{BW: 10})
	mustPanic(t, "free bandwidth", func() { a.CheckSimState(s) })
}

// TestCheckScoreCacheCatchesUncountedRelease hands capacity back behind
// the release counter's back — a reserve of negative amounts, standing
// in for a future mutation that frees capacity and forgets to count it —
// after a search has remembered a failure: the recount finds more nodes
// able to host the demand than the remembered bound allows.
func TestCheckScoreCacheCatchesUncountedRelease(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	s := placement.NewSimState(spec, 4)
	search := &placement.Search{View: s, Idx: s.Index(), Spec: spec, Nodes: 4}
	a := New("t")
	held := placement.Reservation{Cores: 2, Ways: spec.LLCWays - 2}
	for id := 0; id < 4; id++ {
		s.Reserve(id, held)
	}
	d := core.Demand{Cores: 4, Ways: 4}
	if search.FindDemand(1, d) != nil {
		t.Fatal("4 ways fit on a node with 2 free")
	}
	a.CheckScoreCache(search) // a remembered failure that still holds must pass

	// A counted release loosens the bound as it frees the node.
	s.Release(0, held)
	a.CheckScoreCache(search)
	if got := search.FindDemand(2, d); got != nil {
		t.Fatalf("FindDemand(2) = %v with one node freed", got)
	}

	s.Reserve(1, placement.Reservation{Cores: -held.Cores, Ways: -held.Ways})
	mustPanic(t, "node-slots were released since", func() { a.CheckScoreCache(search) })
}

// TestCheckScoreCacheCatchesEditedProfile breaks the ladder memo's
// contract on purpose — a profile edited in place after a request carried
// it, where the profiler would have stored a new one. The search keeps
// trying the scales in the order the profile used to give; the auditor is
// what says so.
func TestCheckScoreCacheCatchesEditedProfile(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	s := placement.NewSimState(spec, 8)
	search := &placement.Search{View: s, Idx: s.Index(), Spec: spec, Nodes: 8, MaxScale: 8}
	curve := make([]float64, spec.LLCWays.Int()+1)
	for w := 1; w < len(curve); w++ {
		curve[w] = 1
	}
	prof := &profiler.Profile{Program: "X", Procs: 16, Class: profiler.Scaling}
	for _, k := range []int{1, 2, 4} {
		prof.Scales = append(prof.Scales, profiler.ScaleProfile{
			K: k, Nodes: k, CoresPerNode: 16 / k, TimeSec: 100 / float64(k),
			IPCByWay: curve, BWByWay: curve,
		})
	}
	req := placement.Request{Procs: 16, BaseNodes: 1, MultiNode: true, Alpha: 0.9, Profile: prof}
	if pl := search.Place(placement.SNS, req); pl == nil || pl.K != 4 {
		t.Fatalf("plan = %+v, want the fastest profiled scale K=4", pl)
	}
	a := New("t")
	a.CheckScoreCache(search) // an untouched profile must pass

	prof.Scales[0].TimeSec = 1 // K=1 is now the fastest scale
	if pl := search.Place(placement.SNS, req); pl == nil || pl.K != 4 {
		t.Fatalf("plan after the edit = %+v; the memo was expected to hold the stale order", pl)
	}
	mustPanic(t, "profile changed after its ladder was resolved", func() { a.CheckScoreCache(search) })
}

func TestCheckIndexAgreement(t *testing.T) {
	spec := hw.DefaultClusterSpec()
	cl, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	idx := placement.NewCoreIndex(spec.Nodes, spec.Node.Cores.Int())
	a := New("t")
	a.CheckIndex(idx)
	a.CheckIndexAgainstCluster(idx, cl)

	// An allocation without the matching index update is exactly the
	// stale-index bug syncIndex exists to prevent.
	if err := cl.Allocate(7, []cluster.NodeAlloc{{Node: 0, Cores: 4}}, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "free cores", func() { a.CheckIndexAgainstCluster(idx, cl) })
}

func TestCheckClusterClean(t *testing.T) {
	spec := hw.DefaultClusterSpec()
	cl, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Allocate(1, []cluster.NodeAlloc{{Node: 0, Cores: 8, MemGB: 16}}, 4, 20, false); err != nil {
		t.Fatal(err)
	}
	if err := cl.Allocate(2, []cluster.NodeAlloc{{Node: 0, Cores: 4}, {Node: 1, Cores: 4}}, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	New("t").CheckCluster(cl)
}

// engineWithJob builds a one-job engine for the engine checks.
func engineWithJob(t *testing.T) *exec.Engine {
	t.Helper()
	e, err := exec.New(hw.DefaultClusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := app.NewCatalog(hw.DefaultNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cat.Lookup("MG")
	if err != nil {
		t.Fatal(err)
	}
	j := &exec.Job{
		ID: 1, Prog: prog, Procs: 4, Alpha: 0.9,
		Nodes: []int{0}, CoresByNode: []int{4}, Ways: 4,
	}
	if err := e.Launch(j); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCheckEngineClean(t *testing.T) {
	New("t").CheckEngine(engineWithJob(t))
}

func TestCheckEngineAgainstClusterCatchesDrift(t *testing.T) {
	e := engineWithJob(t)
	cl, err := cluster.New(e.Spec())
	if err != nil {
		t.Fatal(err)
	}
	// The engine runs a job the bookkeeping knows nothing about.
	mustPanic(t, "bookkeeping reserves", func() { New("t").CheckEngineAgainstCluster(e, cl) })
}

func TestObserveQueueCatchesClockRegression(t *testing.T) {
	a := New("t")
	q := &placement.Pending{}
	a.ObserveQueue(10, q)
	mustPanic(t, "clock ran backwards", func() { a.ObserveQueue(5, q) })
}

func TestObserveQueueCatchesRecordChange(t *testing.T) {
	a := New("t")
	q := &placement.Pending{}
	q.Push(1, 5, 0, 1)
	a.ObserveQueue(6, q)

	// The same job reappears with a rewritten submission time — its
	// age just regressed.
	q2 := &placement.Pending{}
	q2.Push(1, 6, 0, 1)
	mustPanic(t, "queue record changed", func() { a.ObserveQueue(7, q2) })
}

func TestObserveQueueCatchesFutureSubmit(t *testing.T) {
	a := New("t")
	q := &placement.Pending{}
	q.Push(3, 100, 0, 3)
	mustPanic(t, "in the future", func() { a.ObserveQueue(50, q) })
}
