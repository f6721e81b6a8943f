package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(3, func() { got = append(got, 3) })
	q.At(1, func() { got = append(got, 1) })
	q.At(2, func() { got = append(got, 2) })
	for q.Step() {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired order %v, want %v", got, want)
		}
	}
	if q.Now() != 3 {
		t.Errorf("Now = %g, want 3", q.Now())
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(5, func() { got = append(got, i) })
	}
	for q.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestQueueCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.At(1, func() { fired = true })
	q.Cancel(e)
	if q.Len() != 0 {
		t.Errorf("Len after cancel = %d, want 0", q.Len())
	}
	for q.Step() {
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	q.Cancel(nil) // must not panic
}

// TestQueueNext: the peek reports the earliest live event, skipping a
// cancelled head, and fires nothing.
func TestQueueNext(t *testing.T) {
	var q Queue
	if _, ok := q.Next(); ok {
		t.Fatal("empty queue reported a next event")
	}
	e := q.At(1, func() { t.Error("cancelled event fired") })
	q.At(3, func() {})
	q.Cancel(e)
	if at, ok := q.Next(); !ok || at != 3 {
		t.Fatalf("Next() = %g, %v; want 3, true", at, ok)
	}
	if q.Len() != 1 || q.Now() != 0 {
		t.Fatalf("Next fired or lost an event: Len %d, Now %g", q.Len(), q.Now())
	}
}

// TestQueuePastPanics: a time before the clock, or NaN, which orders
// against no time, cannot be scheduled.
func TestQueuePastPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   float64
	}{
		{"past", 1},
		{"NaN", math.NaN()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue
			q.At(5, func() {})
			q.Step()
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %g with the clock at 5 did not panic", tc.at)
				}
			}()
			q.At(tc.at, func() {})
		})
	}
}

func TestQueueRunHorizon(t *testing.T) {
	var q Queue
	count := 0
	for i := 1; i <= 10; i++ {
		q.At(float64(i), func() { count++ })
	}
	fired := q.Run(5)
	if fired != 5 || count != 5 {
		t.Errorf("Run(5) fired %d (count %d), want 5", fired, count)
	}
	fired = q.Run(0)
	if fired != 5 || count != 10 {
		t.Errorf("Run(0) fired %d (count %d), want remaining 5 (total 10)", fired, count)
	}
}

func TestQueueEventsScheduleEvents(t *testing.T) {
	var q Queue
	var trace []float64
	q.At(1, func() {
		trace = append(trace, q.Now())
		q.At(2.5, func() { trace = append(trace, q.Now()) })
	})
	q.At(2, func() { trace = append(trace, q.Now()) })
	q.Run(0)
	want := []float64{1, 2, 2.5}
	if len(trace) != 3 {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

// Property: for any set of times, events fire in nondecreasing time order
// and the clock matches the sorted sequence.
func TestQueueOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		times := make([]float64, count)
		for i := range times {
			times[i] = rng.Float64() * 100
		}
		var q Queue
		var fired []float64
		for _, tt := range times {
			tt := tt
			q.At(tt, func() { fired = append(fired, tt) })
		}
		q.Run(0)
		sort.Float64s(times)
		if len(fired) != count {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// checkQueueOrder schedules n events whose times take one of levels
// integer values, so most times tie exactly, and cancels about cancelPct
// percent of them. It fires up to a horizon halfway through the levels,
// schedules n more at or after the clock, cancels again and drains. Each
// phase must fire exactly its live events, in a stable sort by time of
// their insertion order. With n past compactMin and cancelPct above 50,
// the cancellations compact the heap mid-run.
func checkQueueOrder(t *testing.T, seed int64, n, levels, cancelPct int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type live struct {
		id int
		at float64
		e  *Event
	}
	var q Queue
	var pending []live // insertion order
	var fired []int
	next := 0
	schedule := func(from float64) {
		for i := 0; i < n; i++ {
			id, at := next, from+float64(rng.Intn(levels))
			next++
			pending = append(pending, live{id, at, q.At(at, func() { fired = append(fired, id) })})
		}
	}
	cancel := func() {
		kept := pending[:0]
		for _, p := range pending {
			if rng.Intn(100) < cancelPct {
				q.Cancel(p.e)
			} else {
				kept = append(kept, p)
			}
		}
		pending = kept
		if q.Len() != len(pending) {
			t.Fatalf("seed %d: Len = %d with %d live events", seed, q.Len(), len(pending))
		}
	}
	run := func(phase string, horizon float64) {
		sort.SliceStable(pending, func(a, b int) bool { return pending[a].at < pending[b].at })
		var want []int
		rest := pending[:0]
		for _, p := range pending {
			if horizon <= 0 || p.at <= horizon {
				want = append(want, p.id)
			} else {
				rest = append(rest, p)
			}
		}
		// Keep the survivors in insertion order for the next phase.
		sort.Slice(rest, func(a, b int) bool { return rest[a].id < rest[b].id })
		pending = rest
		fired = fired[:0]
		q.Run(horizon)
		if !slices.Equal(fired, want) {
			t.Fatalf("seed %d, %s phase: fired %v, want %v", seed, phase, fired, want)
		}
	}
	schedule(0)
	cancel()
	run("first", float64(levels)/2+0.5)
	schedule(q.Now())
	cancel()
	run("second", 0)
	if q.Len() != 0 {
		t.Fatalf("seed %d: %d events left after draining", seed, q.Len())
	}
}

func TestQueueOrderTies(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		seed                 int64
		n, levels, cancelPct int
	}{
		{"few, no cancels", 1, 10, 3, 0},
		{"every time tied", 2, 300, 1, 0},
		{"tied and compacting", 3, 200, 4, 60},
		{"all tied, mostly cancelled", 4, 500, 1, 75},
		{"spread times", 5, 300, 50, 30},
		{"everything cancelled", 6, 100, 2, 100},
	} {
		t.Run(tc.name, func(t *testing.T) { checkQueueOrder(t, tc.seed, tc.n, tc.levels, tc.cancelPct) })
	}
}

// FuzzQueueOrder holds the heap to a stable sort by (time, insertion
// order) over arbitrary tie densities, cancellation rates and sizes.
func FuzzQueueOrder(f *testing.F) {
	f.Add(int64(3), uint16(200), uint8(3), uint8(60))
	f.Add(int64(4), uint16(500), uint8(0), uint8(75))
	f.Add(int64(5), uint16(300), uint8(49), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, levels, cancelPct uint8) {
		checkQueueOrder(t, seed, int(n%1024)+1, int(levels)+1, int(cancelPct)%101)
	})
}
