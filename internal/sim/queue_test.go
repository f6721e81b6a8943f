package sim

import (
	"math/rand"
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

func TestQueuePastPanics(t *testing.T) {
	var q Queue
	q.At(5, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	q.At(1, func() {})
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
