package placement

import (
	"fmt"
	"slices"

	"spreadnshare/internal/hw"
)

// cacheEntry is one filed (score, id) key in a bucket's ordered lists.
// Entries are immutable once appended: when a node's score or bucket
// changes, a fresh entry is filed and the old one goes stale in place,
// detected at read time by comparing against the node's live state.
type cacheEntry struct {
	score float64
	id    int32
}

// ScoreCache is the incremental node-score index of the placement
// search: for every node it memoizes the last computed Co + Bo + beta*Wo
// score, and for every free-core bucket it keeps ordered (score, id)
// entries — the exact ascending order selectIdlest emits — so the
// grouped placement path reads its n winners off the front of a bucket
// instead of rescoring and heap-selecting the whole bucket.
//
// Mutations are O(1): backends call Invalidate(id) after every
// reservation change (SimState does it inside Reserve/Release; the
// testbed wires cluster.State.OnChange), which just sets a dirty bit.
// All ordering work happens at search time, where it is amortized over
// the whole dirty batch:
//
//   - flush (top of every cached search): each dirty node is rescored
//     once — however many times it was invalidated since the last
//     search — and a fresh entry is appended to its current bucket's
//     pending adds.
//   - prepare (first touch of a bucket per search): pending adds are
//     sorted and folded into the bucket's small sorted overlay; the
//     overlay consolidates into the big base list only when it outgrows
//     an eighth of it, so a lightly-churned bucket never pays a full
//     rewrite. Stale entries are dropped during every fold, keeping
//     lists near live size without a separate compaction pass.
//   - walk: a two-way merge of base and overlay in ascending
//     (score, id) order, skipping the stale entries that accumulated
//     since the last fold.
//
// Staleness is detected per entry without back-pointers: an entry in
// bucket f is live exactly when the node's current free-core count is
// still f and its memoized score still bit-equals the entry's key. A
// node re-filed under an unchanged (score, bucket) key produces an
// exactly-equal entry adjacent to the old one in merge order, which the
// folds and the walk deduplicate by adjacency.
//
// Node ids are stored as int32 (a 2-billion-node cluster is beyond any
// trace this repository replays); NewScoreCache rejects larger shapes.
type ScoreCache struct {
	score   []float64 // node id -> memoized Co + Bo + beta*Wo
	dirty   []int32   // invalidated node ids awaiting a flush
	isDirty []bool    // node id -> already on the dirty stack

	base    [][]cacheEntry // free cores -> big ordered (score, id) list
	over    [][]cacheEntry // free cores -> small ordered overlay
	adds    [][]cacheEntry // free cores -> unsorted pending entries
	scratch []cacheEntry   // fold scratch, swapped with the rewritten list
}

// NewScoreCache builds the cache for a cluster of the given shape.
// Every node starts dirty, so the first flush populates the bucket
// lists from the live backend — construction itself never reads scores.
func NewScoreCache(nodes, cores int) *ScoreCache {
	if nodes < 0 || cores < 1 || nodes > 1<<31-1 {
		panic(fmt.Sprintf("placement: bad score-cache shape %d nodes / %d cores", nodes, cores))
	}
	c := &ScoreCache{
		score:   make([]float64, nodes),
		dirty:   make([]int32, 0, nodes),
		isDirty: make([]bool, nodes),
		base:    make([][]cacheEntry, cores+1),
		over:    make([][]cacheEntry, cores+1),
		adds:    make([][]cacheEntry, cores+1),
	}
	for id := 0; id < nodes; id++ {
		c.isDirty[id] = true
		c.dirty = append(c.dirty, int32(id))
	}
	return c
}

// Invalidate marks a node's memoized score stale. Backends must call it
// (directly or via their change hook) after every mutation that can
// move the node's free-core count, allocated ways, or allocated
// bandwidth — a missed call makes searches silently wrong, which is why
// the runtime auditor cross-checks clean entries against the live view.
// Repeated invalidations between searches coalesce into one rescore.
//
//sns:hotpath
func (c *ScoreCache) Invalidate(id int) {
	if c.isDirty[id] {
		return
	}
	c.isDirty[id] = true
	//lint:allocfree dirty stack reuses its len(nodes)-cap backing; each node appears at most once
	c.dirty = append(c.dirty, int32(id))
}

// InvalidateSpan marks every node in ids stale in one call — the
// round-coalesced form of Invalidate that SimState's span mutations
// feed: the change hook fires once per placement round instead of once
// per node. The dirty stack and dedup bits land exactly as the
// per-node Invalidate loop would leave them.
//
//sns:hotpath
func (c *ScoreCache) InvalidateSpan(ids []int) {
	for _, id := range ids {
		if c.isDirty[id] {
			continue
		}
		c.isDirty[id] = true
		//lint:allocfree dirty stack reuses its len(nodes)-cap backing; each node appears at most once
		c.dirty = append(c.dirty, int32(id))
	}
}

// entryLess orders entries by the (score, id) key — the selectIdlest
// total order, which is what makes bucket walks emit candidates in the
// exact sequence the from-scratch selection would.
func entryLess(a, b cacheEntry) int {
	//lint:floateq exact tie detection so the (score, id) order stays total
	if a.score != b.score {
		if a.score < b.score {
			return -1
		}
		return 1
	}
	return int(a.id) - int(b.id)
}

// live reports whether an entry filed under bucket f still describes
// its node: the node's current free-core count is still f and its
// memoized score still bit-equals the entry key. Callers must have
// flushed the dirty set first — a dirty node's memoized score lags the
// backend.
func (c *ScoreCache) live(e cacheEntry, f int, idx *CoreIndex) bool {
	//lint:floateq a rescored node is detected by exact key mismatch; tolerance would resurrect stale entries
	return c.score[e.id] == e.score && idx.Free(int(e.id)) == f
}

// flush folds pending invalidations into the cache: each dirty node is
// rescored once via score (the canonical expression over the live view)
// and refiled under its current free-core bucket as a pending add. The
// node's old entry — wherever it is — goes stale by key mismatch.
// Buckets whose backlog outgrew four times their live population are
// folded eagerly so untouched buckets cannot accumulate unbounded
// garbage.
//
//sns:hotpath
func (c *ScoreCache) flush(idx *CoreIndex, score func(id int) float64) {
	if len(c.dirty) == 0 {
		return
	}
	// Drain the round's whole batch in ascending node-id order: the
	// rescore sequence becomes a canonical function of the dirty SET,
	// independent of the arrival order the round's mutations pushed it
	// in, and the backend reads walk the capacity arrays sequentially
	// instead of in plan order.
	//lint:allocfree slices.Sort is an in-place pdqsort over the dirty stack's own backing
	slices.Sort(c.dirty)
	for _, id := range c.dirty {
		//lint:allocfree score is the caller's stack closure over Search.score; the runtime alloc gate verifies the cached search allocates only its results
		s := score(int(id))
		c.score[id] = s
		c.isDirty[id] = false
		f := idx.Free(int(id))
		//lint:allocfree bucket backlogs reach steady-state capacity after the first replay epochs
		c.adds[f] = append(c.adds[f], cacheEntry{score: s, id: id})
	}
	c.dirty = c.dirty[:0]
	for f := range c.adds {
		if len(c.adds[f]) > 0 && len(c.base[f])+len(c.over[f])+len(c.adds[f]) > 4*idx.Count(f)+1024 {
			c.prepare(f, idx)
		}
	}
}

// fold merges two sorted entry lists into the scratch buffer, dropping
// stale entries and adjacent duplicates, and returns the result. The
// caller is responsible for recycling the backing array it replaces
// into c.scratch.
//
//sns:hotpath
func (c *ScoreCache) fold(a, b []cacheEntry, f int, idx *CoreIndex) []cacheEntry {
	out := c.scratch[:0]
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var e cacheEntry
		if j >= len(b) || (i < len(a) && entryLess(a[i], b[j]) <= 0) {
			e = a[i]
			i++
		} else {
			e = b[j]
			j++
		}
		if !c.live(e, f, idx) {
			continue
		}
		if n := len(out); n > 0 && out[n-1] == e {
			continue
		}
		//lint:allocfree fold scratch reaches steady-state capacity after the first replay epochs
		out = append(out, e)
	}
	return out
}

// prepare makes bucket f's ordered lists current: pending adds are
// sorted and folded into the overlay; the overlay consolidates into the
// base only when it outgrows an eighth of it (a small fold absorbs
// light churn without rewriting a large bucket). After prepare, base
// and overlay together hold every live member of bucket f, in ascending
// (score, id) order each, plus at most the stale leftovers of nodes
// that departed without a subsequent add. Call only with a flushed
// dirty set.
//
//sns:hotpath
func (c *ScoreCache) prepare(f int, idx *CoreIndex) {
	add := c.adds[f]
	if len(add) == 0 {
		return
	}
	//lint:allocfree slices.SortFunc is an in-place pdqsort; the comparator is a top-level func and nothing escapes
	slices.SortFunc(add, entryLess)
	merged := c.fold(c.over[f], add, f, idx)
	c.scratch = c.over[f][:0]
	c.over[f] = merged
	c.adds[f] = add[:0]
	if len(c.over[f]) > 1024 && len(c.over[f])*8 > len(c.base[f]) {
		consolidated := c.fold(c.base[f], c.over[f], f, idx)
		c.scratch = c.base[f][:0]
		c.base[f] = consolidated
		c.over[f] = c.over[f][:0]
	}
}

// walk visits bucket f's live entries in ascending (score, id) order —
// a two-way merge of base and overlay — stopping early when fn returns
// false. Stale entries and adjacent duplicates are skipped in place.
// Call only with a flushed dirty set and a prepared bucket.
//
//sns:hotpath
func (c *ScoreCache) walk(f int, idx *CoreIndex, fn func(id int32, score float64) bool) {
	a, b := c.base[f], c.over[f]
	i, j := 0, 0
	prev := cacheEntry{id: -1}
	for i < len(a) || j < len(b) {
		var e cacheEntry
		if j >= len(b) || (i < len(a) && entryLess(a[i], b[j]) <= 0) {
			e = a[i]
			i++
		} else {
			e = b[j]
			j++
		}
		if e == prev {
			continue
		}
		if !c.live(e, f, idx) {
			continue
		}
		prev = e
		//lint:allocfree fn is the cached search's stack closure; the runtime alloc gate verifies the walk allocates nothing
		if !fn(e.id, e.score) {
			return
		}
	}
}

// Score returns a node's memoized score. Valid only after a flush; the
// cached search reads selection scores through it instead of
// recomputing them per candidate.
func (c *ScoreCache) Score(id int) float64 { return c.score[id] }

// Audit cross-checks the cache against the live backend: every clean
// node's memoized score must bit-equal the canonical expression
// recomputed over the view, every bucket's base and overlay must be
// sorted ascending by (score, id), and every clean node must be
// recoverable from its current bucket's lists or pending adds — the
// walk-visibility guarantee searches rely on. Dirty nodes are exempt
// from the score and membership checks: being stale until the next
// flush is their contract. The runtime invariant auditor and the fuzz
// harness call this between mutations.
func (c *ScoreCache) Audit(view NodeView, idx *CoreIndex, spec hw.NodeSpec, beta float64) error {
	for _, lists := range [2][][]cacheEntry{c.base, c.over} {
		for f, ents := range lists {
			for i := 1; i < len(ents); i++ {
				if entryLess(ents[i-1], ents[i]) > 0 {
					return fmt.Errorf("placement: cache bucket %d out of (score, id) order at entry %d", f, i)
				}
			}
		}
	}
	for id := range c.score {
		if c.isDirty[id] {
			continue
		}
		want := nodeScoreOf(view, spec, id, beta)
		//lint:floateq the cache contract is bit-identical scores, so only exact equality is correct
		if c.score[id] != want {
			return fmt.Errorf("placement: node %d cached score %v, recomputed %v", id, c.score[id], want)
		}
		f := idx.Free(id)
		key := cacheEntry{score: c.score[id], id: int32(id)}
		_, found := slices.BinarySearchFunc(c.base[f], key, entryLess)
		if !found {
			_, found = slices.BinarySearchFunc(c.over[f], key, entryLess)
		}
		if !found {
			for _, e := range c.adds[f] {
				if e == key {
					found = true
					break
				}
			}
		}
		if !found {
			return fmt.Errorf("placement: clean node %d (score %v) missing from bucket %d", id, c.score[id], f)
		}
	}
	return nil
}
