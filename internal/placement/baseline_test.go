package placement

import (
	"math/rand"
	"slices"
	"testing"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

// The baseline searches (CE, CS, TwoSlot) read the core index directly.
// The references below are the bodies they replaced, kept as oracles:
// each collects candidates one id at a time through Scan or a per-node
// loop, and TwoSlot lists every slot before merging runs of equal ids.
// They test free memory even when no memory is asked; the searches do
// not, which differs only on a node whose free memory is below zero, a
// state the harness never builds.

// refIdle is Idle as a Scan over the fully-free bucket.
func refIdle(s *Search, n int) []int {
	if n <= 0 || s.Idx.Count(s.Spec.Cores.Int()) < n {
		return nil
	}
	out := make([]int, 0, n)
	s.Idx.Scan(s.Spec.Cores.Int(), func(id int) bool {
		out = append(out, id)
		return len(out) < n
	})
	return out
}

// refAscendFree is ascendFree as a Scan of every adequate bucket.
func refAscendFree(s *Search, minFree, n int, mem float64) []int {
	if n <= 0 {
		return nil
	}
	var ids []int
	for f := minFree; f <= s.Spec.Cores.Int() && len(ids) < n; f++ {
		s.Idx.Scan(f, func(id int) bool {
			if s.View.FreeMem(id) >= mem {
				ids = append(ids, id)
			}
			return len(ids) < n
		})
	}
	if len(ids) < n {
		return nil
	}
	return ids
}

// refPlace is Place for the three baselines over the references.
func refPlace(s *Search, p Policy, req Request) *Plan {
	switch p {
	case CE:
		if nodes := refIdle(s, req.BaseNodes); nodes != nil {
			return &Plan{Nodes: nodes, Cores: s.coresAt(&req, req.BaseNodes), Exclusive: true, K: 1}
		}
	case CS:
		for k := 1; k <= s.MaxScale; k++ {
			n := k * req.BaseNodes
			if n > s.Nodes {
				break
			}
			if !req.runnable(n) {
				continue
			}
			share := req.firstShare(n)
			if nodes := refAscendFree(s, share, n, float64(share)*req.MemGBPerProc); nodes != nil {
				return &Plan{Nodes: nodes, Cores: s.coresAt(&req, n), K: k}
			}
		}
	case TwoSlot:
		return refTwoSlot(s, req)
	}
	return nil
}

// refTwoSlot is placeTwoSlot's candidate-and-merge body: one candidate
// per slot, then a run-length merge into per-node core counts.
func refTwoSlot(s *Search, req Request) *Plan {
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
	var candidates []int
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
		free := freeCores / half
		if memPerSlot > 0 {
			if byMem := int(freeMem / memPerSlot); byMem < free {
				free = byMem
			}
		}
		if req.Intensive && free > 1 && slots <= s.Nodes {
			free = 1
		}
		for k := 0; k < free && len(candidates) < slots; k++ {
			candidates = append(candidates, id)
		}
		if len(candidates) == slots {
			break
		}
	}
	if len(candidates) < slots {
		return nil
	}
	var nodes, cores []int
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
	if remaining > 0 || !req.runnable(len(nodes)) {
		return nil
	}
	return &Plan{Nodes: nodes, Cores: cores, K: 1}
}

// baselineCores are the node widths the harness draws from: the default
// node, an odd width, and the narrow shapes where a node offers three
// slots (3 cores) or half-node slots of one core.
var baselineCores = []int{28, 27, 5, 3, 2}

// memPerProc are the per-process memory demands the harness draws from;
// 0 asks none, and the fractions land slot sizes on and off the 4 GB
// grid the reservations are drawn on.
var memPerProc = []float64{0, 0, 0.5, 1, 1.0 / 3, 2, 4.5, 8}

// randomBaselineSearch builds a 64-node cluster of the given width in a
// random occupancy: per node a random core take (idle and full nodes
// common), memory on a 4 GB grid, and an intensive job on some.
func randomBaselineSearch(rng *rand.Rand, cores int) *Search {
	spec := hw.DefaultNodeSpec()
	spec.Cores = units.CoresOf(cores)
	const nodes = 64
	st := NewSimState(spec, nodes)
	for id := 0; id < nodes; id++ {
		var r Reservation
		switch rng.Intn(4) {
		case 0: // idle
		case 1:
			r.Cores = cores
		default:
			r.Cores = rng.Intn(cores + 1)
		}
		r.MemGB = float64(4 * rng.Intn(int(spec.MemoryGB)/4+1))
		r.Intensive = rng.Intn(3) == 0
		st.Reserve(id, r)
	}
	s := &Search{View: st, Idx: st.Index(), Spec: spec, Nodes: nodes, MaxScale: 1 + rng.Intn(8)}
	if rng.Intn(4) != 0 {
		s.HasIntensive = st.HasIntensive
	}
	return s
}

// randomBaselineRequest draws a process- or footprint-based request.
func randomBaselineRequest(rng *rand.Rand, cores int) Request {
	req := Request{
		BaseNodes:    1 + rng.Intn(24),
		MemGBPerProc: memPerProc[rng.Intn(len(memPerProc))],
		MultiNode:    rng.Intn(4) != 0,
		PowerOf2:     rng.Intn(4) == 0,
		Intensive:    rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		req.Procs = 1 + rng.Intn(cores*24)
	} else {
		req.CoresPerNode = 1 + rng.Intn(cores)
	}
	return req
}

// checkBaselines places req under CE, CS and TwoSlot and compares every
// plan field with the references.
func checkBaselines(t *testing.T, s *Search, req Request) {
	t.Helper()
	for _, p := range []Policy{CE, CS, TwoSlot} {
		got, want := s.Place(p, req), refPlace(s, p, req)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s %+v (width %d): plan %+v, reference %+v", p, req, s.Spec.Cores, got, want)
		}
		if got == nil {
			continue
		}
		if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Cores, want.Cores) ||
			got.K != want.K || got.Exclusive != want.Exclusive {
			t.Fatalf("%s %+v (width %d):\nplan      %+v\nreference %+v", p, req, s.Spec.Cores, got, want)
		}
		if cap(got.Nodes) != len(got.Nodes) || cap(got.Cores) != len(got.Cores) {
			t.Fatalf("%s: plan slices cap %d/%d for length %d", p, cap(got.Nodes), cap(got.Cores), len(got.Nodes))
		}
	}
}

// TestTwoSlotMatchesReference holds the one-pass TwoSlot plan, and the
// index-read CE and CS node lists, to the bodies they replaced over
// random occupancies: mixed free cores, intensive neighbours, memory
// asked and not, both request shapes.
func TestTwoSlotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	placed := 0
	for round := 0; round < 400; round++ {
		cores := baselineCores[round%len(baselineCores)]
		s := randomBaselineSearch(rng, cores)
		for q := 0; q < 20; q++ {
			req := randomBaselineRequest(rng, cores)
			checkBaselines(t, s, req)
			if s.Place(TwoSlot, req) != nil {
				placed++
			}
		}
	}
	// A harness whose requests never fit would compare nil with nil.
	if placed < 1000 {
		t.Fatalf("only %d of 8,000 TwoSlot requests placed", placed)
	}
}

// FuzzTwoSlotPlan lets the fuzzer pick the occupancy (through the seed),
// the node width and the request the baselines are compared on.
func FuzzTwoSlotPlan(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(42), uint8(2), uint8(0), uint8(0))
	f.Add(int64(7), uint8(3), uint16(0), uint8(5), uint8(2), uint8(0x0f))
	f.Add(int64(40), uint8(1), uint16(300), uint8(12), uint8(6), uint8(0x05))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, procs uint16, base uint8, mem uint8, flags uint8) {
		cores := baselineCores[int(width)%len(baselineCores)]
		s := randomBaselineSearch(rand.New(rand.NewSource(seed)), cores)
		req := Request{
			Procs:        int(procs) % (cores * 70),
			BaseNodes:    1 + int(base)%70,
			CoresPerNode: 1 + int(flags>>4)%cores,
			MemGBPerProc: memPerProc[int(mem)%len(memPerProc)],
			MultiNode:    flags&1 != 0,
			PowerOf2:     flags&2 != 0,
			Intensive:    flags&4 != 0,
		}
		if flags&8 != 0 {
			s.HasIntensive = nil
		}
		checkBaselines(t, s, req)
	})
}

// TestBaselinePlaceAllocs is the allocation gate on a successful baseline
// Place: it allocates the Plan and its result slices, each exactly as
// long as the plan, and nothing else — no scratch growth once warm, no
// candidate copy, no closure. A footprint plan's cores are the Search's
// shared run, so CE and CS hand over two objects; TwoSlot's uneven plan
// owns its core vector, three.
func TestBaselinePlaceAllocs(t *testing.T) {
	_, s := newTestSearch(64)
	cases := []struct {
		p    Policy
		req  Request
		objs float64
	}{
		{CE, Request{BaseNodes: 8, CoresPerNode: 16, MultiNode: true}, 2},
		{CS, Request{BaseNodes: 8, CoresPerNode: 16, MultiNode: true}, 2},
		{CS, Request{BaseNodes: 8, CoresPerNode: 16, MemGBPerProc: 2, MultiNode: true}, 2},
		{TwoSlot, Request{BaseNodes: 8, CoresPerNode: 21, MultiNode: true}, 3},
		{TwoSlot, Request{Procs: 200, BaseNodes: 8, MemGBPerProc: 2, MultiNode: true, Intensive: true}, 3},
	}
	for _, c := range cases {
		pl := s.Place(c.p, c.req) // the warm call
		if pl == nil {
			t.Fatalf("%s %+v: not placed on an idle cluster", c.p, c.req)
		}
		if cap(pl.Nodes) != len(pl.Nodes) || cap(pl.Cores) != len(pl.Cores) {
			t.Errorf("%s: plan slices cap %d/%d for length %d", c.p, cap(pl.Nodes), cap(pl.Cores), len(pl.Nodes))
		}
		allocs := testing.AllocsPerRun(100, func() {
			if s.Place(c.p, c.req) == nil {
				t.Fatal("not placed on an idle cluster")
			}
		})
		if allocs != c.objs {
			t.Errorf("%s %+v: a successful Place allocates %.1f objects, want %.0f", c.p, c.req, allocs, c.objs)
		}
	}
}
