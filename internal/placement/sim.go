package placement

import (
	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

// SimState is the lightweight cluster backend of the large-scale trace
// simulator: flat per-node capacity arrays plus the kernel's core index,
// implementing NodeView and the Reserve/Release write side. Unlike the
// testbed's cluster.State it keeps no per-job bookkeeping — the caller
// retains the effective Reservations and returns them on release — which
// is what makes 32K-node replays cheap.
type SimState struct {
	spec      hw.NodeSpec
	idx       *CoreIndex
	freeWays  []units.Ways
	freeBW    []units.GBps
	freeMem   []float64
	freeIO    []units.GBps
	intensive []int // running intensive-job count per node (TwoSlot)

	// onChange, when set, is called with every node id whose reservation
	// state changes — the score cache's dirty-set feed, which also keeps
	// a cached Search's remembered failures exact. Anything new that
	// changes a node's capacity must fire it; the invariant auditor
	// re-tests every clean node against both.
	onChange func(id int)

	// onSpan, when set, receives a span mutation's whole node set in one
	// call — the round-coalesced form of onChange (ScoreCache's
	// InvalidateSpan is the intended subscriber). Span mutations prefer
	// it over the per-node hook; per-node Reserve/Release still fire
	// onChange.
	onSpan func(ids []int)
}

// NewSimState builds an all-idle simulated cluster.
func NewSimState(spec hw.NodeSpec, nodes int) *SimState {
	s := &SimState{
		spec:      spec,
		idx:       NewCoreIndex(nodes, spec.Cores.Int()),
		freeWays:  make([]units.Ways, nodes),
		freeBW:    make([]units.GBps, nodes),
		freeMem:   make([]float64, nodes),
		freeIO:    make([]units.GBps, nodes),
		intensive: make([]int, nodes),
	}
	for i := 0; i < nodes; i++ {
		s.freeWays[i] = spec.LLCWays
		s.freeBW[i] = spec.PeakBandwidth
		s.freeMem[i] = spec.MemoryGB
		s.freeIO[i] = spec.IOBandwidth
	}
	return s
}

// Index returns the free-core index a Search runs over.
func (s *SimState) Index() *CoreIndex { return s.idx }

// SetOnChange registers a hook called with every node id whose
// reservation state changes. A ScoreCache's Invalidate is the intended
// subscriber: wiring it here means no Reserve/Release call site can
// forget to feed the dirty set.
func (s *SimState) SetOnChange(fn func(id int)) { s.onChange = fn }

// SetOnSpanChange registers the round-coalesced change hook: span
// mutations hand it their whole node set in one call instead of firing
// the per-node hook once per node. A ScoreCache's InvalidateSpan is the
// intended subscriber; the dirty set it accumulates is identical, the
// hook overhead is once per placement round.
func (s *SimState) SetOnSpanChange(fn func(ids []int)) { s.onSpan = fn }

// Spec returns the per-node hardware spec, the capacity bound the
// invariant auditor checks free counters against.
func (s *SimState) Spec() hw.NodeSpec { return s.spec }

// IntensiveCount returns the running intensive-job count on a node.
func (s *SimState) IntensiveCount(id int) int { return s.intensive[id] }

// Len returns the cluster size.
func (s *SimState) Len() int { return len(s.freeWays) }

// MaxFreeCores returns the largest free-core count on any node — the
// capacity bound quoted by stuck-placement diagnostics.
func (s *SimState) MaxFreeCores() int { return s.idx.MaxFree() }

// HasIntensive reports whether the node hosts an intensive job.
func (s *SimState) HasIntensive(id int) bool { return s.intensive[id] > 0 }

// NodeView.

// UsedCores returns the reserved core count.
func (s *SimState) UsedCores(id int) int { return s.spec.Cores.Int() - s.idx.Free(id) }

// AllocWays returns the CAT-allocated LLC ways.
func (s *SimState) AllocWays(id int) units.Ways { return s.spec.LLCWays - s.freeWays[id] }

// AllocBW returns the reserved memory bandwidth.
func (s *SimState) AllocBW(id int) units.GBps { return s.spec.PeakBandwidth - s.freeBW[id] }

// FreeWays returns unallocated LLC ways.
func (s *SimState) FreeWays(id int) units.Ways { return s.freeWays[id] }

// FreeBW returns unreserved memory bandwidth.
func (s *SimState) FreeBW(id int) units.GBps { return s.freeBW[id] }

// FreeMem returns unreserved main memory.
func (s *SimState) FreeMem(id int) float64 { return s.freeMem[id] }

// FreeIO returns unreserved file-system bandwidth.
func (s *SimState) FreeIO(id int) units.GBps { return s.freeIO[id] }

// Write side.

// Reserve applies a reservation and returns its effective form (an
// exclusive take resolves to all currently-free cores).
func (s *SimState) Reserve(id int, r Reservation) Reservation {
	if r.Exclusive {
		r.Cores = s.idx.Free(id)
	}
	s.idx.Update(id, s.idx.Free(id)-r.Cores)
	s.freeWays[id] -= r.Ways
	s.freeBW[id] -= r.BW
	s.freeMem[id] -= r.MemGB
	s.freeIO[id] -= r.IOBW
	if r.Intensive {
		s.intensive[id]++
	}
	if s.onChange != nil {
		s.onChange(id)
	}
	return r
}

// ReserveSpan applies one uniform, non-exclusive reservation prototype
// to every node in ids — the common SNS/CS footprint shape, where a
// placement reserves the same amount on thousands of nodes. It batches
// the whole mutation per event: the core index moves the span a bitset
// word at a time, each capacity array the reservation touches is
// updated in one pass, then the change hook fires once for the span (or
// per node when only the per-node hook is set; the score cache's
// Invalidate is O(1) and coalescing, so notification order carries no
// cost). The resulting state and dirty set are identical to calling
// Reserve once per node in the same order.
//
//sns:hotpath
func (s *SimState) ReserveSpan(ids []int, r Reservation) {
	if r.Exclusive {
		panic("placement: ReserveSpan is for uniform reservations; exclusive takes resolve per node")
	}
	s.applySpan(ids, Reservation{
		Cores: -r.Cores, Ways: -r.Ways, BW: -r.BW, MemGB: -r.MemGB, IOBW: -r.IOBW, Intensive: r.Intensive,
	}, 1)
	s.notifySpan(ids)
}

// ReleaseSpan undoes a uniform reservation applied by ReserveSpan (or by
// per-node Reserve calls of the same prototype), with the same batched
// cache notification as ReserveSpan.
//
//sns:hotpath
func (s *SimState) ReleaseSpan(ids []int, r Reservation) {
	s.applySpan(ids, r, -1)
	s.notifySpan(ids)
}

// applySpan adds the signed amounts of d to every node in ids, and
// jobs to the intensive count when d is intensive, one pass per
// dimension d moves. A dimension d leaves at zero is not touched, which
// is bit-identical: the free counters start positive and never become
// −0, so x ± 0 == x. A reserve hands in its amounts negated, and
// x + (−y) is x − y exactly.
func (s *SimState) applySpan(ids []int, d Reservation, jobs int) {
	s.idx.UpdateSpan(ids, d.Cores)
	if d.Ways != 0 {
		for _, id := range ids {
			s.freeWays[id] += d.Ways
		}
	}
	if d.BW != 0 {
		for _, id := range ids {
			s.freeBW[id] += d.BW
		}
	}
	if d.MemGB != 0 {
		for _, id := range ids {
			s.freeMem[id] += d.MemGB
		}
	}
	if d.IOBW != 0 {
		for _, id := range ids {
			s.freeIO[id] += d.IOBW
		}
	}
	if d.Intensive {
		for _, id := range ids {
			s.intensive[id] += jobs
		}
	}
}

// notifySpan feeds one event's whole mutated node set to the change
// hook. The round-coalesced span hook wins over the per-node hook when
// both are set; the dirty set either leaves behind is identical.
func (s *SimState) notifySpan(ids []int) {
	if s.onSpan != nil {
		//lint:allocfree the span hook is the score cache's InvalidateSpan, itself a hotpath root
		s.onSpan(ids)
	} else if s.onChange != nil {
		for _, id := range ids {
			//lint:allocfree the per-node hook is the score cache's Invalidate, itself a hotpath root
			s.onChange(id)
		}
	}
}

// Release undoes an effective reservation returned by Reserve.
func (s *SimState) Release(id int, r Reservation) {
	s.idx.Update(id, s.idx.Free(id)+r.Cores)
	s.freeWays[id] += r.Ways
	s.freeBW[id] += r.BW
	s.freeMem[id] += r.MemGB
	s.freeIO[id] += r.IOBW
	if r.Intensive {
		s.intensive[id]--
	}
	if s.onChange != nil {
		s.onChange(id)
	}
}
