package placement

import (
	"fmt"
	"math/bits"
)

// CoreIndex is the free-capacity index of the placement kernel: node ids
// bucketed by free-core count, each bucket a bitset. It generalizes the
// trace simulator's byFree slice index with two properties the testbed
// scheduler's determinism rules require:
//
//   - iteration within a bucket is in ascending node-id order (a bitset
//     has no insertion order to leak), matching the ID-order tie-breaking
//     of the linear scans it replaces;
//   - updates are O(1) bit flips, so a placement pass over a 32K-node
//     cluster touches ~cores+1 population counters and only the words of
//     the buckets it scans instead of every node.
//
// Invariants: every node id lives in exactly one bucket; bucket f holds
// precisely the nodes whose backend reports f free cores (exclusively
// held nodes index as 0); counts[f] equals the population of bucket f.
// The backend must call Update or UpdateSpan after every reservation
// change — a stale index makes the searches silently wrong, so both
// panic on out-of-range values rather than clamping.
type CoreIndex struct {
	cores   int
	words   int
	free    []int      // node id -> free cores
	counts  []int      // free cores -> bucket population
	buckets [][]uint64 // free cores -> node-id bitset
}

// NewCoreIndex builds the index for a cluster of all-idle nodes.
func NewCoreIndex(nodes, cores int) *CoreIndex {
	if nodes < 0 || cores < 1 {
		panic(fmt.Sprintf("placement: bad index shape %d nodes / %d cores", nodes, cores))
	}
	x := &CoreIndex{
		cores:   cores,
		words:   (nodes + 63) / 64,
		free:    make([]int, nodes),
		counts:  make([]int, cores+1),
		buckets: make([][]uint64, cores+1),
	}
	for f := range x.buckets {
		x.buckets[f] = make([]uint64, x.words)
	}
	full := x.buckets[cores]
	for id := 0; id < nodes; id++ {
		full[id>>6] |= 1 << (uint(id) & 63)
		x.free[id] = cores
	}
	x.counts[cores] = nodes
	return x
}

// Len returns the number of indexed nodes.
func (x *CoreIndex) Len() int { return len(x.free) }

// Cores returns the per-node core capacity the index was built with.
func (x *CoreIndex) Cores() int { return x.cores }

// Free returns a node's indexed free-core count.
func (x *CoreIndex) Free(id int) int { return x.free[id] }

// Count returns the number of nodes with exactly `free` free cores.
func (x *CoreIndex) Count(free int) int { return x.counts[free] }

// MaxFree returns the highest free-core count present on any node.
func (x *CoreIndex) MaxFree() int {
	for f := x.cores; f > 0; f-- {
		if x.counts[f] > 0 {
			return f
		}
	}
	return 0
}

// Update moves a node to the bucket of its new free-core count.
func (x *CoreIndex) Update(id, free int) {
	old := x.free[id]
	if old == free {
		return
	}
	if free < 0 || free > x.cores {
		//lint:allocfree Sprintf runs only on the invariant-violation panic path, never on a completed update
		panic(fmt.Sprintf("placement: node %d free cores %d outside [0, %d]", id, free, x.cores))
	}
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	x.buckets[old][w] &^= bit
	x.buckets[free][w] |= bit
	x.counts[old]--
	x.counts[free]++
	x.free[id] = free
}

// UpdateSpan moves every node in ids by delta free cores, leaving the
// index exactly as Update(id, Free(id)+delta) called for each id in
// order would. A run of consecutive ids that share a bitset word and
// leave the same bucket moves as one mask: one clear, one set and one
// population count. A repeated id ends its run, because its first move
// already changed the bucket it leaves.
//
//sns:hotpath
func (x *CoreIndex) UpdateSpan(ids []int, delta int) {
	for i := 0; i < len(ids); {
		id := ids[i]
		old := x.free[id]
		free := old + delta
		if free < 0 || free > x.cores {
			//lint:allocfree Sprintf runs only on the invariant-violation panic path, never on a completed update
			panic(fmt.Sprintf("placement: node %d free cores %d outside [0, %d]", id, free, x.cores))
		}
		w := id >> 6
		mask := uint64(1) << (uint(id) & 63)
		x.free[id] = free
		for i++; i < len(ids); i++ {
			id = ids[i]
			if id>>6 != w || x.free[id] != old {
				break
			}
			mask |= 1 << (uint(id) & 63)
			x.free[id] = free
		}
		x.buckets[old][w] &^= mask
		x.buckets[free][w] |= mask
		n := bits.OnesCount64(mask)
		x.counts[old] -= n
		x.counts[free] += n
	}
}

// Take fills out with the lowest ids of the nodes with exactly `free`
// free cores, in ascending order, and returns how many it wrote: len(out)
// or the bucket's population, whichever is smaller.
//
//sns:hotpath
func (x *CoreIndex) Take(free int, out []int) int {
	out = out[:min(len(out), x.counts[free])]
	n := 0
	for w := 0; n < len(out); w++ {
		for word := x.buckets[free][w]; word != 0 && n < len(out); word &= word - 1 {
			out[n] = w<<6 + bits.TrailingZeros64(word)
			n++
		}
	}
	return n
}

// Scan visits the nodes with exactly `free` free cores in ascending id
// order, stopping early (and returning false) when fn returns false.
// The index must not be mutated during a scan.
func (x *CoreIndex) Scan(free int, fn func(id int) bool) bool {
	for w, word := range x.buckets[free] {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			//lint:allocfree callback is vetted at each annotated caller; Scan retains nothing
			if !fn(id) {
				return false
			}
			word &= word - 1
		}
	}
	return true
}
