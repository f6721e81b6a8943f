package placement

import (
	"fmt"

	"spreadnshare/internal/core"
)

// Remembered failures. With a standing queue nearly every FindDemand
// fails, and fails again at the next event for the same reason. A failed
// walk is not wasted, though: no bucket was adequate, so it visited every
// bucket and counted every node that can host the demand — exactly have
// of them, fewer than asked for. That count stays a bound for as long as
// the backend can say how much capacity has come back since:
//
//   - a reserve only takes capacity, so it can only remove nodes from the
//     set that hosts a demand;
//   - a released node-slot gives capacity back on one node, so it adds at
//     most one node to that set;
//   - a demand at least as large in every dimension is hosted by a subset
//     of the nodes that host the smaller one.
//
// So once have nodes hosted d at release count stamp, at most
// have + (released − stamp) nodes host any d' >= d now, and a query for
// more than that many is answered nil without a walk. The answer is the
// one the walk would give — pruning, not a heuristic — which is why
// nothing ever clears the table and no key on n is needed.

// releaseCounter is what a backend offers beyond NodeView for its Search
// to remember failures: a monotone count of node-slots released.
// SimState has it; cluster.State does not, so the testbed scheduler's
// searches walk every time.
type releaseCounter interface {
	Released() uint64
}

// maxFailBounds caps the table. One entry per distinct demand keeps a
// 600-job standing queue at about 30; the cap only has to stop a stream
// of never-repeating demands from turning the scan into the cost it
// replaces.
const maxFailBounds = 64

// failBound is one remembered failure: at release count stamp exactly
// have nodes could host d.
type failBound struct {
	d     core.Demand
	have  int
	stamp uint64
}

// limit is the most nodes that can host b.d once the backend has counted
// released node-slots.
func (b *failBound) limit(released uint64) uint64 {
	return uint64(b.have) + (released - b.stamp)
}

// asksAtLeast reports whether q asks at least as much as d of every
// resource, so that a node able to host q can host d. The fields are
// compared raw: fits ignores a dimension at <= 0, and under raw >= a
// query that leaves a dimension unbound never matches an entry that
// binds it — and may have failed because of it.
func asksAtLeast(q, d core.Demand) bool {
	return q.Cores >= d.Cores && q.Ways >= d.Ways && q.BW >= d.BW && q.MemGB >= d.MemGB && q.IOBW >= d.IOBW
}

// released reads the backend's release count, if its view has one.
//
//sns:hotpath
func (s *Search) released() (uint64, bool) {
	rc, ok := s.View.(releaseCounter)
	if !ok {
		return 0, false
	}
	return rc.Released(), true
}

// provenShort reports whether a remembered failure rules out finding n
// nodes for d.
//
//sns:hotpath
func (s *Search) provenShort(n int, d core.Demand) bool {
	released, ok := s.released()
	if !ok {
		return false
	}
	for i := range s.failed {
		b := &s.failed[i]
		if b.limit(released) < uint64(n) && asksAtLeast(d, b.d) {
			return true
		}
	}
	return false
}

// rememberFailure records that a walk found exactly have nodes able to
// host d. A demand keeps one entry, overwritten by its freshest count; a
// full table gives up its loosest bound.
//
//sns:hotpath
func (s *Search) rememberFailure(d core.Demand, have int) {
	released, ok := s.released()
	if !ok {
		return
	}
	fresh := failBound{d: d, have: have, stamp: released}
	loosest := 0
	for i := range s.failed {
		if s.failed[i].d == d {
			s.failed[i] = fresh
			return
		}
		if s.failed[i].limit(released) > s.failed[loosest].limit(released) {
			loosest = i
		}
	}
	if len(s.failed) == maxFailBounds {
		s.failed[loosest] = fresh
		return
	}
	//lint:allocfree the table stops growing at maxFailBounds entries
	s.failed = append(s.failed, fresh)
}

// auditFailures cross-checks every remembered failure against the live
// backend by recounting the nodes that can host its demand. A count
// above the entry's limit means some mutation gave capacity back without
// the backend's release counter moving — after which provenShort would
// turn away jobs that fit. Search.Audit runs it.
func (s *Search) auditFailures() error {
	released, ok := s.released()
	if !ok {
		return nil
	}
	for i := range s.failed {
		b := &s.failed[i]
		hosts := uint64(0)
		for f := max(b.d.Cores, 0); f <= s.Spec.Cores.Int(); f++ {
			s.Idx.Scan(f, func(id int) bool {
				if s.fits(id, b.d) {
					hosts++
				}
				return true
			})
		}
		if hosts > b.limit(released) {
			return fmt.Errorf("placement: %d nodes can host %+v, but a walk counted %d and only %d node-slots were released since",
				hosts, b.d, b.have, released-b.stamp)
		}
	}
	return nil
}
