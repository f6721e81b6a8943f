package placement

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
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
// search, and one of FindDemand's two candidate sources: for every node
// it memoizes the last computed Co + Bo + beta*Wo score, and for every
// free-core bucket it keeps ordered (score, id) entries — the order
// FindDemand selects in — so a grouped search reads its n winners off
// the front of a bucket instead of scanning, rescoring and sorting it.
//
// Mutations are O(1) per node: backends call Invalidate(id) after every
// reservation change (SimState does it inside Reserve/Release), which
// just sets the node's bit in the dirty bitset, and a span mutation's
// InvalidateSpan sets a word's bits with one OR per run of ids in that
// word. Only svc wires a cache,
// and only under SNS, the one policy whose search calls FindDemand; the
// testbed scheduler (internal/sched) runs on a few nodes, where building
// and invalidating a cache per run costs more than scanning the buckets
// it would replace.
//
// All ordering work happens at search time, where it is amortized over
// the whole dirty batch and leans on the order the batch already has:
//
//   - flush (top of every cached search, right after the remembered
//     failures re-test the dirty nodes): the bitset is drained in
//     ascending node-id order — its only order — and each dirty node's
//     state (used cores, allocated bandwidth, allocated ways) is read
//     once, however many times it was invalidated since the last
//     search: from SimState's arrays when the view is one, through
//     NodeView otherwise. The score is a pure function of that state
//     and a span's nodes share it, so it is evaluated once per run of
//     equal state (ten fig20_sns inputs drain 29.8 M nodes and evaluate
//     16 K scores). A node whose (score, bucket) key did not move keeps
//     the entry it has; any other gets a fresh entry appended to its
//     current bucket's pending adds.
//   - prepare (first touch of a bucket per search): pending adds are
//     put in order by sortRuns — a span's nodes share a score and were
//     filed id-ascending, so a batch is nearly always one or two runs —
//     and folded into the bucket's small sorted overlay; the overlay
//     consolidates into the big base list only when it outgrows an
//     eighth of it, so a lightly-churned bucket never pays a full
//     rewrite. Stale entries are dropped during every fold, keeping
//     lists near live size without a separate compaction pass.
//   - walk: a two-way merge of base and overlay in ascending
//     (score, id) order, skipping the stale entries that accumulated
//     since the last fold.
//
// Staleness is detected per entry without back-pointers: an entry in
// bucket f is live exactly when the node's current free-core count is
// still f and its memoized score still bit-equals the entry's key. A
// node that left its key and came back to it is re-filed under an
// exactly-equal entry, adjacent to the old one in merge order if a fold
// has not dropped that yet, which the folds and the walk deduplicate by
// adjacency.
//
// No fold runs while any node is dirty (prepare asserts it): a fold
// judges liveness against the memoized score, which lags the backend for
// a dirty node, so it could drop the very entry flush would later decide
// to keep.
//
// Node ids are stored as int32 (a 2-billion-node cluster is beyond any
// trace this repository replays) and filed buckets as uint16;
// NewScoreCache rejects larger shapes.
type ScoreCache struct {
	score  []float64 // node id -> memoized Co + Bo + beta*Wo
	filed  []uint16  // node id -> bucket its current entry was filed under
	dirty  []uint64  // node-id bitset of invalidated nodes awaiting a flush
	ndirty int       // population of dirty

	base [][]cacheEntry // free cores -> big ordered (score, id) list
	over [][]cacheEntry // free cores -> small ordered overlay
	adds [][]cacheEntry // free cores -> pending entries, filed id-ascending per flush
	// Each ordered list folds into a second buffer of its own and swaps
	// with it, so a large base and a small overlay never trade backings.
	baseSpare [][]cacheEntry
	overSpare [][]cacheEntry
	sortBuf   []cacheEntry // sortRuns' merge buffer
}

// unfiled is the filed value of a node no flush has reached yet. It is
// no bucket, so the first flush files every node.
const unfiled = 1<<16 - 1

// NewScoreCache builds the cache for a cluster of the given shape.
// Every node starts dirty, so the first flush populates the bucket
// lists from the live backend — construction itself never reads scores.
func NewScoreCache(nodes, cores int) *ScoreCache {
	if nodes < 0 || cores < 1 || nodes > 1<<31-1 || cores >= unfiled {
		panic(fmt.Sprintf("placement: bad score-cache shape %d nodes / %d cores", nodes, cores))
	}
	c := &ScoreCache{
		score:     make([]float64, nodes),
		filed:     make([]uint16, nodes),
		dirty:     make([]uint64, (nodes+63)/64),
		ndirty:    nodes,
		base:      make([][]cacheEntry, cores+1),
		over:      make([][]cacheEntry, cores+1),
		adds:      make([][]cacheEntry, cores+1),
		baseSpare: make([][]cacheEntry, cores+1),
		overSpare: make([][]cacheEntry, cores+1),
	}
	for id := range c.filed {
		c.filed[id] = unfiled
		c.dirty[id>>6] |= 1 << (id & 63)
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
	w, bit := id>>6, uint64(1)<<(id&63)
	if c.dirty[w]&bit == 0 {
		c.dirty[w] |= bit
		c.ndirty++
	}
}

// InvalidateSpan marks every node in ids stale in one call — the
// round-coalesced form of Invalidate that SimState's span mutations
// feed: the change hook fires once per placement round instead of once
// per node. Each run of ids that share a bitset word costs one OR, and
// the count grows by the bits that run newly set, so the dirty set and
// its count land exactly as the per-node Invalidate loop would leave
// them, in any id order.
//
//sns:hotpath
func (c *ScoreCache) InvalidateSpan(ids []int) {
	for i := 0; i < len(ids); {
		w := ids[i] >> 6
		var mask uint64
		for ; i < len(ids) && ids[i]>>6 == w; i++ {
			mask |= 1 << (ids[i] & 63)
		}
		c.ndirty += bits.OnesCount64(mask &^ c.dirty[w])
		c.dirty[w] |= mask
	}
}

// entryLess orders entries by the (score, id) key — the total order
// FindDemand selects in, whichever source its candidates come from.
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

// entryBefore reports whether a sorts strictly before b in entryLess's
// order. It is the comparison of sortRuns' inner loops, small enough to
// inline there and deliberately not entryLess: the benchmark's profile
// charges entryLess to the flush by name, and a sort's compares belong
// to whoever called the sort.
func entryBefore(a, b cacheEntry) bool {
	//lint:floateq exact tie detection so the (score, id) order stays total
	return a.score < b.score || (a.score == b.score && a.id < b.id)
}

// runEnd returns the end of the maximal ascending run of ents that
// starts at lo (lo itself when lo is the end of ents).
func runEnd(ents []cacheEntry, lo int) int {
	if lo >= len(ents) {
		return lo
	}
	hi := lo + 1
	for hi < len(ents) && !entryBefore(ents[hi], ents[hi-1]) {
		hi++
	}
	return hi
}

// sortRuns sorts ents ascending by (score, id) — entryLess's order —
// in place, as a natural-run merge sort: it finds the maximal ascending
// runs the input already has and merges neighbouring runs pairwise,
// back and forth between ents and *buf, until one is left. Input that
// is one run costs a single pass and never touches the buffer; r runs
// cost O(n log r); strictly interleaved input is the O(n log n) of the
// comparison sort this replaced. The order is total and entries with
// equal keys are identical, so any correct sort emits this sequence.
//
// The batches it is handed are nearly sorted by construction: a flush
// files pending adds in ascending id order and a span's nodes share one
// score, and FindDemand's fallback concatenates sorted buckets.
//
//sns:hotpath
func sortRuns(ents []cacheEntry, buf *[]cacheEntry) {
	n := len(ents)
	if runEnd(ents, 0) == n {
		return
	}
	if cap(*buf) < n {
		//lint:allocfree the merge buffer grows to the widest multi-run batch and is then reused
		*buf = append((*buf)[:0], ents...)
	}
	src, dst := ents, (*buf)[:n]
	for {
		merged := 0
		for lo := 0; lo < n; merged++ {
			mid := runEnd(src, lo)
			hi := runEnd(src, mid)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if entryBefore(src[j], src[i]) {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
			lo = hi
		}
		src, dst = dst, src
		if merged == 1 {
			break
		}
	}
	if &src[0] != &ents[0] {
		copy(ents, src)
	}
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
// rescored once with scoreOf over its live state and, if its (score,
// bucket) key moved, refiled under its current free-core bucket as a
// pending add. The node's old entry — wherever it is — goes stale by key
// mismatch. A node whose key did not move (a short job came and went
// between two searches) is not refiled: no fold ran while it was dirty,
// so the entry it was last filed under is still in that bucket's lists.
// Buckets whose backlog outgrew four times their live population are
// folded eagerly so untouched buckets cannot accumulate unbounded
// garbage.
//
// The bitset drains in ascending node-id order, so the rescore sequence
// is a function of the dirty SET, not of the order the round's mutations
// arrived in, the state reads walk the capacity arrays sequentially,
// and each bucket's pending adds are filed id-ascending — sorted
// already wherever neighbours share a score. A span's nodes share their
// state too, so the score is evaluated only where a node's (used cores,
// allocated bandwidth, allocated ways) differs from the previous dirty
// node's, and reused otherwise. The state is read from a *SimState's
// arrays when view is one — asserted once per flush — and through
// NodeView otherwise, one read of each per drained node.
//
// Search.settle is the only caller: the search's remembered failures
// re-test the dirty set before it is drained here (failed.go).
//
//sns:hotpath
func (c *ScoreCache) flush(idx *CoreIndex, view NodeView, spec hw.NodeSpec, beta float64) {
	if c.ndirty == 0 {
		return
	}
	sim, _ := view.(*SimState)
	// The previous dirty node's state and score. A NaN bandwidth equals
	// nothing, so the first node is always scored.
	used, bw, ways, s := 0, math.NaN(), units.Ways(0), 0.0
	for w, word := range c.dirty {
		for ; word != 0; word &= word - 1 {
			id := w<<6 + bits.TrailingZeros64(word)
			var u int
			var b units.GBps
			var wy units.Ways
			if sim != nil {
				u, b, wy = sim.UsedCores(id), sim.AllocBW(id), sim.AllocWays(id)
			} else {
				u, b, wy = view.UsedCores(id), view.AllocBW(id), view.AllocWays(id)
			}
			//lint:floateq scoreOf is pure, so equal inputs give equal outputs; NaN never compares equal, so a NaN state is rescored
			if u != used || b.Float64() != bw || wy != ways {
				used, bw, ways = u, b.Float64(), wy
				s = scoreOf(u, b, wy, spec, beta)
			}
			f := idx.Free(id)
			//lint:floateq an unmoved key is detected by exact match, the same test live applies to the entry it keeps
			if s == c.score[id] && int(c.filed[id]) == f {
				continue
			}
			c.score[id] = s
			c.filed[id] = uint16(f)
			//lint:allocfree bucket backlogs reach steady-state capacity after the first replay epochs
			c.adds[f] = append(c.adds[f], cacheEntry{score: s, id: int32(id)})
		}
		c.dirty[w] = 0
	}
	c.ndirty = 0
	for f := range c.adds {
		if len(c.adds[f]) > 0 && len(c.base[f])+len(c.over[f])+len(c.adds[f]) > 4*idx.Count(f)+1024 {
			c.prepare(f, idx)
		}
	}
}

// fold merges two sorted entry lists into out's backing, dropping stale
// entries and adjacent duplicates, and returns the result. out is the
// spare of the list being rewritten; the caller swaps the two.
//
//sns:hotpath
func (c *ScoreCache) fold(out, a, b []cacheEntry, f int, idx *CoreIndex) []cacheEntry {
	out = out[:0]
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
		//lint:allocfree a list's spare grows by append until it holds the list's steady-state size, then the pair only swaps
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
// that departed without a subsequent add. It panics on an unflushed
// dirty set: a fold then could drop an entry flush relies on keeping.
//
//sns:hotpath
func (c *ScoreCache) prepare(f int, idx *CoreIndex) {
	if c.ndirty != 0 {
		panic("placement: score-cache bucket prepared with dirty nodes pending")
	}
	add := c.adds[f]
	if len(add) == 0 {
		return
	}
	sortRuns(add, &c.sortBuf)
	merged := c.fold(c.overSpare[f], c.over[f], add, f, idx)
	c.over[f], c.overSpare[f] = merged, c.over[f]
	c.adds[f] = add[:0]
	if len(c.over[f]) > 1024 && len(c.over[f])*8 > len(c.base[f]) {
		consolidated := c.fold(c.baseSpare[f], c.base[f], c.over[f], f, idx)
		c.base[f], c.baseSpare[f] = consolidated, c.base[f]
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

// audit cross-checks the cache against the live backend: the dirty
// bitset must hold exactly the count kept beside it and no bit past the
// last node, every clean node's memoized score must bit-equal the
// canonical expression recomputed over the view, every bucket's base and
// overlay must be sorted ascending by (score, id), and every clean node
// must have been filed under its current bucket and be recoverable from
// that bucket's lists or pending adds — the walk-visibility guarantee
// searches rely on, and what lets flush keep an unmoved node's entry.
// Dirty nodes are exempt from the score and membership checks: being
// stale until the next flush is their contract. Search.Audit runs it.
func (c *ScoreCache) audit(view NodeView, idx *CoreIndex, spec hw.NodeSpec, beta float64) error {
	pop := 0
	for _, word := range c.dirty {
		pop += bits.OnesCount64(word)
	}
	if past := len(c.dirty)<<6 - len(c.score); past > 0 && c.dirty[len(c.dirty)-1]>>(64-past) != 0 {
		return fmt.Errorf("placement: dirty bit set beyond the cache's %d nodes", len(c.score))
	}
	if pop != c.ndirty {
		return fmt.Errorf("placement: dirty set holds %d nodes, count says %d", pop, c.ndirty)
	}
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
		if c.dirty[id>>6]&(1<<(id&63)) != 0 {
			continue
		}
		want := nodeScoreOf(view, spec, id, beta)
		//lint:floateq the cache contract is bit-identical scores, so only exact equality is correct
		if c.score[id] != want {
			return fmt.Errorf("placement: node %d cached score %v, recomputed %v", id, c.score[id], want)
		}
		f := idx.Free(id)
		if int(c.filed[id]) != f {
			return fmt.Errorf("placement: clean node %d filed under bucket %d, has %d cores free", id, c.filed[id], f)
		}
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
