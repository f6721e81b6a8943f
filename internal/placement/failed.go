package placement

import (
	"fmt"
	"math/bits"

	"spreadnshare/internal/core"
)

// Remembered failures. With a standing queue nearly every FindDemand
// fails, and fails again at the next event for the same reason. A failed
// cached walk is not wasted, though: no bucket was adequate, so it
// visited every bucket at or above d.Cores and tested every node there —
// its candidate list is exactly the set of nodes that can host d, fewer
// than asked for. The search keeps that set as a node bitset with its
// count, and keeps it exact:
//
//   - a node's feasibility for d can change only when the node's
//     reservations change, and every such change lands in the score
//     cache's dirty set (Invalidate);
//   - settle, the one code path that drains the dirty set, re-tests each
//     dirty node against each entry before it flushes the cache.
//
// So after settle every entry counts exactly the nodes that can host its
// demand now, and a query for more nodes than that is answered nil
// without a walk — the answer the walk would give. A demand at least as
// large in every dimension is hosted by a subset of those nodes, so one
// entry also answers every demand that dominates it.
//
// Upkeep is paid per dirty node per entry, so an entry that stops
// answering queries must not be kept forever: each settle charges an
// entry the dirty nodes it re-tests, and once the charge since the entry
// last answered a query exceeds the size of the walk it saves (the nodes
// at or above d.Cores), the entry is dropped. An empty table only means
// the next failing walk is made instead of skipped, so the table is
// derived state: never snapshotted, empty after Restore, and kept only
// by searches with a score cache, whose dirty set is what keeps it exact.

// maxFailEntries caps the table. One entry per distinct demand keeps a
// 600-job standing queue at about 30; the cap only has to stop a stream
// of never-repeating demands from turning the scan into the cost it
// replaces.
const maxFailEntries = 64

// failEntry is one remembered failure: hosts is the set of nodes that
// can host d (a node-id bitset), count its population, and charge the
// dirty nodes re-tested against it since it last answered a query.
type failEntry struct {
	d      core.Demand
	hosts  []uint64
	count  int
	charge int
}

// asksAtLeast reports whether q asks at least as much as d of every
// resource, so that a node able to host q can host d. The fields are
// compared raw: fits ignores a dimension at <= 0, and under raw >= a
// query that leaves a dimension unbound never matches an entry that
// binds it — and may have failed because of it.
func asksAtLeast(q, d core.Demand) bool {
	return q.Cores >= d.Cores && q.Ways >= d.Ways && q.BW >= d.BW && q.MemGB >= d.MemGB && q.IOBW >= d.IOBW
}

// canHost reports whether node id can host d right now: enough free cores
// and every other dimension fits. It is the test a cached walk applies,
// spelled once for upkeep and the audit.
//
//sns:hotpath
func (s *Search) canHost(id int, d core.Demand) bool {
	return s.Idx.Free(id) >= d.Cores && s.fits(id, d)
}

// settle brings the cached search's derived state up to the backend:
// the remembered failures re-test the dirty nodes, then the score cache
// flushes them. It is the only code that drains the dirty set, so no
// flush can leave a remembered failure behind.
//
//sns:hotpath
func (s *Search) settle() {
	c := s.Cache
	if c.ndirty > 0 && len(s.failed) > 0 {
		s.upkeep(c.dirty, c.ndirty)
	}
	beta := s.beta()
	//lint:allocfree the rescore closure does not escape flush; the runtime alloc gate verifies stack allocation
	c.flush(s.Idx, func(id int) float64 { return s.score(id, beta) })
}

// upkeep charges every entry the ndirty nodes of the dirty bitset, drops
// the entries whose charge outgrew the walk they save, and re-tests each
// dirty node against each kept entry, flipping its bit and count where
// its feasibility changed.
//
//sns:hotpath
func (s *Search) upkeep(dirty []uint64, ndirty int) {
	kept := s.failed[:0]
	for _, b := range s.failed {
		b.charge += ndirty
		if b.charge > s.walkSize(b.d.Cores) {
			//lint:allocfree the spare list holds at most maxFailEntries bitsets
			s.spare = append(s.spare, b.hosts)
			continue
		}
		//lint:allocfree in-place compaction; kept never outgrows the table
		kept = append(kept, b)
	}
	s.failed = kept
	if len(kept) == 0 {
		return
	}
	for w, word := range dirty {
		for ; word != 0; word &= word - 1 {
			id := w<<6 + bits.TrailingZeros64(word)
			bit := uint64(1) << (id & 63)
			for i := range kept {
				b := &kept[i]
				in := s.canHost(id, b.d)
				if in == (b.hosts[w]&bit != 0) {
					continue
				}
				b.hosts[w] ^= bit
				if in {
					b.count++
				} else {
					b.count--
				}
			}
		}
	}
}

// walkSize is the number of nodes a walk for a demand of cores cores
// visits: every node with at least that many free.
//
//sns:hotpath
func (s *Search) walkSize(cores int) int {
	n := 0
	for f := max(cores, 0); f <= s.Spec.Cores.Int(); f++ {
		n += s.Idx.Count(f)
	}
	return n
}

// provenShort reports whether a remembered failure rules out finding n
// nodes for d, and credits the entry that does. Call it only after
// settle: a table with dirty nodes pending may be stale.
//
//sns:hotpath
func (s *Search) provenShort(n int, d core.Demand) bool {
	for i := range s.failed {
		b := &s.failed[i]
		if b.count < n && asksAtLeast(d, b.d) {
			b.charge = 0
			return true
		}
	}
	return false
}

// rememberFailure records that a cached walk, made with the dirty set
// drained, found exactly the candidates in all able to host d. A full
// table gives up its widest entry, the one least likely to rule out a
// query — of equally wide ones, the one longest without answering. A
// dropped entry's bitset is reused, so only a new entry beyond every
// earlier one allocates.
//
//sns:hotpath
func (s *Search) rememberFailure(d core.Demand, all []cacheEntry) {
	if len(s.failed) == maxFailEntries {
		widest := 0
		for i := range s.failed {
			b, w := &s.failed[i], &s.failed[widest]
			if b.count > w.count || (b.count == w.count && b.charge > w.charge) {
				widest = i
			}
		}
		//lint:allocfree the spare list holds at most maxFailEntries bitsets
		s.spare = append(s.spare, s.failed[widest].hosts)
		copy(s.failed[widest:], s.failed[widest+1:])
		s.failed = s.failed[:len(s.failed)-1]
	}
	var set []uint64
	if k := len(s.spare); k > 0 {
		set = s.spare[k-1]
		s.spare = s.spare[:k-1]
		clear(set)
	} else {
		//lint:allocfree one bitset per entry beyond every earlier one; dropped entries' bitsets are reused
		set = make([]uint64, len(s.Cache.dirty))
	}
	for _, e := range all {
		set[e.id>>6] |= 1 << (e.id & 63)
	}
	//lint:allocfree the table stops growing at maxFailEntries entries
	s.failed = append(s.failed, failEntry{d: d, hosts: set, count: len(all)})
}

// auditFailures cross-checks every remembered failure against the live
// backend: its count must equal its set's population, and every clean
// node's bit must say whether the node can host the demand now. Dirty
// nodes are exempt, as in the cache audit — settle re-tests them before
// the table is next read. A disagreeing clean node means some mutation
// changed a node's capacity without invalidating it, after which
// provenShort could turn away jobs that fit. Search.Audit runs it.
func (s *Search) auditFailures() error {
	if len(s.failed) == 0 {
		return nil
	}
	dirty := s.Cache.dirty
	nodes := s.Idx.Len()
	for i := range s.failed {
		b := &s.failed[i]
		pop := 0
		for _, w := range b.hosts {
			pop += bits.OnesCount64(w)
		}
		if pop != b.count {
			return fmt.Errorf("placement: remembered failure of %+v counts %d hosts, its set holds %d", b.d, b.count, pop)
		}
		if past := len(b.hosts)<<6 - nodes; past > 0 && b.hosts[len(b.hosts)-1]>>(64-past) != 0 {
			return fmt.Errorf("placement: remembered failure of %+v holds a node beyond the cluster's %d", b.d, nodes)
		}
		for id := 0; id < nodes; id++ {
			w, bit := id>>6, uint64(1)<<(id&63)
			if dirty[w]&bit != 0 {
				continue
			}
			if want, have := s.canHost(id, b.d), b.hosts[w]&bit != 0; want != have {
				return fmt.Errorf("placement: clean node %d can host %+v: %v, but the remembered failure says %v", id, b.d, want, have)
			}
		}
	}
	return nil
}
