package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestCoreIndexUpdateAndScan(t *testing.T) {
	x := NewCoreIndex(100, 28)
	if x.Len() != 100 || x.Count(28) != 100 || x.MaxFree() != 28 {
		t.Fatalf("fresh index: len=%d count(28)=%d max=%d", x.Len(), x.Count(28), x.MaxFree())
	}
	x.Update(70, 12)
	x.Update(3, 12)
	x.Update(99, 0)
	if x.Free(70) != 12 || x.Count(12) != 2 || x.Count(28) != 97 || x.Count(0) != 1 {
		t.Fatalf("after updates: free(70)=%d count(12)=%d count(28)=%d count(0)=%d",
			x.Free(70), x.Count(12), x.Count(28), x.Count(0))
	}
	// Scan visits in ascending id order regardless of update order.
	var got []int
	x.Scan(12, func(id int) bool { got = append(got, id); return true })
	if len(got) != 2 || got[0] != 3 || got[1] != 70 {
		t.Errorf("Scan(12) = %v, want [3 70]", got)
	}
	// Early stop returns false.
	if x.Scan(28, func(id int) bool { return false }) {
		t.Error("stopped scan returned true")
	}
	// A no-op update keeps counts intact.
	x.Update(70, 12)
	if x.Count(12) != 2 {
		t.Errorf("no-op update changed count: %d", x.Count(12))
	}
}

// TestCoreIndexTakeMatchesScan holds Take to Scan: for every bucket of a
// random occupancy and every output length, Take writes the first ids
// Scan visits, in its order, and reports how many.
func TestCoreIndexTakeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nodes := range []int{1, 63, 64, 65, 300} {
		x := NewCoreIndex(nodes, 8)
		for id := 0; id < nodes; id++ {
			x.Update(id, rng.Intn(9))
		}
		for f := 0; f <= 8; f++ {
			var all []int
			x.Scan(f, func(id int) bool { all = append(all, id); return true })
			for n := 0; n <= len(all)+2; n++ {
				out := make([]int, n)
				got := x.Take(f, out)
				want := all[:min(n, len(all))]
				if got != len(want) || !slices.Equal(out[:got], want) {
					t.Fatalf("%d nodes, bucket %d, Take into %d = %d %v, want %d %v", nodes, f, n, got, out[:got], len(want), want)
				}
			}
		}
	}
}

func TestCoreIndexMaxFreeDrains(t *testing.T) {
	x := NewCoreIndex(4, 8)
	for id := 0; id < 4; id++ {
		x.Update(id, 0)
	}
	if x.MaxFree() != 0 {
		t.Errorf("drained MaxFree = %d, want 0", x.MaxFree())
	}
	x.Update(2, 5)
	if x.MaxFree() != 5 {
		t.Errorf("MaxFree = %d, want 5", x.MaxFree())
	}
}

func TestCoreIndexPanicsOnBadUpdate(t *testing.T) {
	x := NewCoreIndex(4, 8)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range update did not panic")
		}
	}()
	x.Update(1, 9)
}

// updateSpanBoth applies one span to x by UpdateSpan and to ref by the
// per-node Update loop UpdateSpan stands for, and fails unless both
// panic with the same message or neither does, and the two indexes are
// left identical word for word either way. It reports whether they
// panicked.
func updateSpanBoth(t *testing.T, x, ref *CoreIndex, ids []int, delta int) bool {
	t.Helper()
	got := panicMessage(func() { x.UpdateSpan(ids, delta) })
	want := panicMessage(func() {
		for _, id := range ids {
			ref.Update(id, ref.Free(id)+delta)
		}
	})
	if got != want {
		t.Fatalf("UpdateSpan(%v, %d) panicked with %q, the Update loop with %q", ids, delta, got, want)
	}
	if !slices.Equal(x.free, ref.free) || !slices.Equal(x.counts, ref.counts) {
		t.Fatalf("UpdateSpan(%v, %d): free or counts diverged from the Update loop", ids, delta)
	}
	for f := range x.buckets {
		if !slices.Equal(x.buckets[f], ref.buckets[f]) {
			t.Fatalf("UpdateSpan(%v, %d): bucket %d words diverged from the Update loop", ids, delta, f)
		}
	}
	return got != ""
}

// panicMessage runs fn and returns what it panicked with, or "" if it
// returned.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestCoreIndexUpdateSpanMatchesUpdate drives UpdateSpan against the
// per-node Update loop over node counts that are not multiples of 64,
// with id lists that are sorted within a word, unsorted, cross-word and
// repeated, and deltas of both signs, including ones that leave the
// range part way through a span.
func TestCoreIndexUpdateSpanMatchesUpdate(t *testing.T) {
	const cores = 28
	shapes := []struct {
		name string
		ids  func(rng *rand.Rand, n int) []int
	}{
		{"sorted", func(rng *rand.Rand, n int) []int {
			lo := rng.Intn(n)
			return seq(lo, min(n, lo+1+rng.Intn(150)))
		}},
		{"unsorted", func(rng *rand.Rand, n int) []int {
			return rng.Perm(n)[:1+rng.Intn(n)]
		}},
		{"descending", func(rng *rand.Rand, n int) []int {
			ids := seq(0, n)
			slices.Reverse(ids)
			return ids
		}},
		{"repeats", func(rng *rand.Rand, n int) []int {
			ids := seq(0, n)
			return append(ids, ids[rng.Intn(n):]...)
		}},
		{"clustered", func(rng *rand.Rand, n int) []int {
			ids := make([]int, 1+rng.Intn(3*n))
			id := rng.Intn(n)
			for k := range ids {
				if rng.Intn(8) == 0 {
					id = rng.Intn(n)
				} else {
					id = (id + rng.Intn(3) + n - 1) % n // -1, 0 or +1
				}
				ids[k] = id
			}
			return ids
		}},
	}
	rng := rand.New(rand.NewSource(1))
	finished, panicked := 0, 0
	for _, n := range []int{1, 5, 63, 65, 130, 200, 1000} {
		for _, shape := range shapes {
			for trial := 0; trial < 20; trial++ {
				// Odd trials: any occupancy and any delta, so most spans
				// leave the range part way. Even trials: a small delta
				// over nodes at least 4 cores from either end, so only an
				// id repeated three times or more can leave it.
				lo, hi, delta := 0, cores, rng.Intn(2*cores+1)-cores
				if trial%2 == 0 {
					lo, hi, delta = 4, cores-4, rng.Intn(5)-2
				}
				x, ref := NewCoreIndex(n, cores), NewCoreIndex(n, cores)
				for k := 0; k < n; k++ {
					f := lo + rng.Intn(hi-lo+1)
					x.Update(k, f)
					ref.Update(k, f)
				}
				ids := shape.ids(rng, n)
				t.Run(fmt.Sprintf("%d/%s/%d", n, shape.name, trial), func(t *testing.T) {
					if updateSpanBoth(t, x, ref, ids, delta) {
						panicked++
					} else {
						finished++
					}
				})
			}
		}
	}
	if finished < 100 || panicked < 100 {
		t.Errorf("%d spans finished and %d left the range: the table no longer exercises both", finished, panicked)
	}
	// One panic pinned by value: the repeat of node 3 is what overflows.
	x, ref := NewCoreIndex(70, 8), NewCoreIndex(70, 8)
	updateSpanBoth(t, x, ref, []int{2, 3, 4}, -5)
	got := panicMessage(func() { x.UpdateSpan([]int{1, 3, 66, 3}, -2) })
	if want := "placement: node 3 free cores -1 outside [0, 8]"; got != want {
		t.Errorf("UpdateSpan overflow on a repeated node panicked with %q, want %q", got, want)
	}
}

// seq returns the ids lo, lo+1, ..., hi-1.
func seq(lo, hi int) []int {
	ids := make([]int, 0, hi-lo)
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	return ids
}

// FuzzIndexUpdateSpan lets the fuzzer hunt for an occupancy, a span and
// a delta on which UpdateSpan and the per-node Update loop part ways.
// The first half of ops sets free counts node by node; each byte of the
// second half is a span id: with its high bit set, a jump to a fresh
// position, otherwise a step of -1 to +6 from the last id, so spans are
// dense within words, cross them, go backwards and repeat. The same span
// drives ScoreCache.InvalidateSpan against the per-node Invalidate loop,
// from the partial dirty set the first half's nodes make.
func FuzzIndexUpdateSpan(f *testing.F) {
	f.Add(uint16(130), uint8(28), int8(-4), []byte{1, 2, 3, 4, 5, 6, 0x80, 1, 1, 0, 0x8f, 2, 2})
	f.Add(uint16(65), uint8(8), int8(3), []byte{0, 9, 7, 7, 0xc0, 1, 1, 1, 0, 0})
	f.Add(uint16(1), uint8(1), int8(-1), []byte{0, 1})
	f.Fuzz(func(t *testing.T, nodes uint16, cores uint8, delta int8, ops []byte) {
		n, c := 1+int(nodes)%300, 1+int(cores)%40
		x, ref := NewCoreIndex(n, c), NewCoreIndex(n, c)
		cx, cref := cleanScoreCache(n, c), cleanScoreCache(n, c)
		half := len(ops) / 2
		for k := 0; k+1 < half; k += 2 {
			id, f := int(ops[k])*n/256, int(ops[k+1])%(c+1)
			x.Update(id, f)
			ref.Update(id, f)
			cx.Invalidate(id)
			cref.Invalidate(id)
		}
		ids := make([]int, 0, len(ops)-half)
		id := 0
		for _, b := range ops[half:] {
			if b&0x80 != 0 {
				id = int(b&0x7f) * n / 128
			} else {
				id = (id + int(b%8) - 1 + n) % n
			}
			ids = append(ids, id)
		}
		cx.InvalidateSpan(ids)
		for _, id := range ids {
			cref.Invalidate(id)
		}
		if !slices.Equal(cx.dirty, cref.dirty) || cx.ndirty != cref.ndirty {
			t.Fatalf("InvalidateSpan(%v) left dirty %x (count %d), the Invalidate loop %x (count %d)",
				ids, cx.dirty, cx.ndirty, cref.dirty, cref.ndirty)
		}
		updateSpanBoth(t, x, ref, ids, int(delta)%(c+1))
	})
}

// cleanScoreCache returns a score cache with no node dirty.
func cleanScoreCache(nodes, cores int) *ScoreCache {
	c := NewScoreCache(nodes, cores)
	clear(c.dirty)
	c.ndirty = 0
	return c
}

func TestPendingAgingAndOrder(t *testing.T) {
	q := &Pending{AgingPeriodSec: 100}
	// Same effective rank: order breaks the tie.
	q.Push(1, 0, 0, 1)
	q.Push(0, 0, 0, 0)
	// Higher priority beats both; an old submission outranks it via aging.
	q.Push(2, 0, 1, 2)
	q.Push(3, -300, 0, 3) // 300 s old: +3 levels
	var tried []int
	q.Schedule(0, func(id int) bool { tried = append(tried, id); return true })
	want := []int{3, 2, 0, 1}
	if len(tried) != 4 {
		t.Fatalf("tried %v", tried)
	}
	for i := range want {
		if tried[i] != want[i] {
			t.Fatalf("try order %v, want %v", tried, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d", q.Len())
	}
}

func TestPendingNoBackfillBlocks(t *testing.T) {
	q := &Pending{AgingPeriodSec: 1, NoBackfill: true}
	q.Push(0, 0, 0, 0)
	q.Push(1, 0, 0, 1)
	var tried []int
	q.Schedule(1, func(id int) bool { tried = append(tried, id); return false })
	if len(tried) != 1 || tried[0] != 0 {
		t.Errorf("NoBackfill tried %v, want only the head", tried)
	}
	if q.Len() != 2 {
		t.Errorf("queue len = %d, want 2", q.Len())
	}
	if first, ok := q.First(); !ok || first.ID != 0 {
		t.Errorf("First = %+v, %v", first, ok)
	}
}

func TestPendingAgeLimitBlocks(t *testing.T) {
	q := &Pending{AgingPeriodSec: 1, AgeLimitSec: 100}
	q.Push(0, 0, 0, 0)
	q.Push(1, 190, 0, 1)
	var tried []int
	// At t=200 job 0 is 200 s old (past the limit): its failure blocks
	// job 1 from overtaking.
	q.Schedule(200, func(id int) bool { tried = append(tried, id); return false })
	if len(tried) != 1 || tried[0] != 0 {
		t.Errorf("age limit tried %v, want only the stuck elder", tried)
	}
}

func TestPendingScanDepth(t *testing.T) {
	q := &Pending{AgingPeriodSec: 1, ScanDepth: 2}
	for i := 0; i < 5; i++ {
		q.Push(i, 0, 0, i)
	}
	tried := 0
	q.Schedule(1, func(id int) bool { tried++; return false })
	if tried != 2 {
		t.Errorf("scan depth tried %d jobs, want 2", tried)
	}
	// Successes do not count against the depth.
	tried = 0
	q.Schedule(1, func(id int) bool { tried++; return id != 3 })
	if tried != 5 {
		t.Errorf("tried %d, want all 5 (only one failure)", tried)
	}
	if q.Len() != 1 {
		t.Errorf("queue len = %d, want the single failure", q.Len())
	}
}
