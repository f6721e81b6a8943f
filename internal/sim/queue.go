// Package sim provides the discrete-event backbone of the cluster
// simulator: a time-ordered event queue with deterministic FIFO
// tie-breaking and cancellation, plus a driver loop.
package sim

// Event is a scheduled callback. Events are compared by time, then by
// insertion order, so simultaneous events fire deterministically.
//
// Event objects are recycled: once an event has fired or has been
// cancelled and reclaimed, the queue may reuse it for a later At call.
// Callers must therefore drop their *Event references when the event
// fires (cancelling the firing event from inside its own callback is
// safe; cancelling a stale reference later is a programming error).
type Event struct {
	Time float64
	Fn   func()

	seq       int64
	index     int // heap position, -1 once popped
	cancelled bool
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancelled }

// eventHeap is a binary min-heap of events under (Time, seq). Its
// sift functions are container/heap's, typed: the comparison and swap
// are direct calls instead of interface calls.
type eventHeap []*Event

// less reports whether event i fires before event j.
//
//sns:hotpath
func (h eventHeap) less(i, j int) bool {
	//lint:floateq exact tie detection so equal-time events fall to seq order
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}

//
//sns:hotpath
func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// up sifts element j toward the root.
//
//sns:hotpath
func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts element i0 toward the leaves of the first n elements.
//
//sns:hotpath
func (h eventHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
}

// push adds e to the heap.
//
//sns:hotpath
func (h *eventHeap) push(e *Event) {
	e.index = len(*h)
	//lint:allocfree heap growth is amortized; the free list recycles events in steady state
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
//
//sns:hotpath
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	old.down(0, n)
	e := old[n]
	old[n] = nil
	e.index = -1
	*h = old[:n]
	return e
}

// init establishes the heap order over arbitrary contents.
//
//sns:hotpath
func (h eventHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// compactMin is the heap size below which cancelled events are left in
// place; compacting tiny heaps is not worth the sift work.
const compactMin = 64

// Queue is a deterministic discrete-event queue. The zero value is ready
// to use.
//
// Cancellation is lazy — a cancelled event stays in the heap until it is
// reached or until cancelled events exceed half the heap, at which point
// the heap is compacted in place. Dead events (fired or reclaimed) are
// recycled through a free list, so steady-state scheduling performs no
// heap allocations.
type Queue struct {
	h    eventHeap
	seq  int64
	now  float64
	dead int      // cancelled events still in the heap
	free []*Event // recycled events available to At
}

// Now returns the simulation clock: the time of the last event popped.
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of pending (non-cancelled) events in O(1).
func (q *Queue) Len() int { return len(q.h) - q.dead }

// At schedules fn at time t. Scheduling in the past (before Now) or at
// NaN, which no time orders against, is a programming error and panics,
// as it would corrupt causality.
//
//sns:hotpath
func (q *Queue) At(t float64, fn func()) *Event {
	if !(t >= q.now) {
		panic("sim: event scheduled in the past")
	}
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.cancelled = false
	} else {
		//lint:allocfree free-list miss only; steady state recycles pooled events
		e = &Event{}
	}
	e.Time, e.Fn, e.seq = t, fn, q.seq
	q.seq++
	q.h.push(e)
	return e
}

// Cancel marks an event so it will be skipped when reached. Cancelling
// nil, an already-cancelled event, or the currently-firing event is a
// no-op.
//
//sns:hotpath
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		q.dead++
		q.maybeCompact()
	}
}

// release returns a dead event to the free list.
//
//sns:hotpath
func (q *Queue) release(e *Event) {
	e.Fn = nil
	//lint:allocfree free list grows to the peak live-event count once
	q.free = append(q.free, e)
}

// maybeCompact rebuilds the heap without its cancelled events once they
// outnumber the live ones, so reschedule-heavy runs (every finish-event
// reschedule cancels a predecessor) do not accumulate dead weight.
//
//sns:hotpath
func (q *Queue) maybeCompact() {
	if len(q.h) < compactMin || q.dead*2 <= len(q.h) {
		return
	}
	kept := q.h[:0]
	for _, e := range q.h {
		if e.cancelled {
			q.release(e)
		} else {
			e.index = len(kept)
			//lint:allocfree compaction appends into the heap's own backing array (kept := q.h[:0])
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(q.h); i++ {
		q.h[i] = nil
	}
	q.h = kept
	q.dead = 0
	// The (time, seq) order is total, so re-heapifying cannot perturb
	// pop order.
	q.h.init()
}

// Step pops and runs the next pending event, returning false when the
// queue is empty.
//
//sns:hotpath
func (q *Queue) Step() bool {
	for len(q.h) > 0 {
		e := q.h.pop()
		if e.cancelled {
			q.dead--
			q.release(e)
			continue
		}
		q.now = e.Time
		//lint:allocfree event callbacks are the simulation's work, vetted by their own gates
		e.Fn()
		// Recycle only after Fn returns: the callback may legally
		// cancel or inspect the event that invoked it.
		q.release(e)
		return true
	}
	return false
}

// Next returns the time of the earliest pending event without firing
// it, reclaiming any cancelled events at the head on the way; false
// means the queue is empty.
//
//sns:hotpath
func (q *Queue) Next() (float64, bool) {
	for len(q.h) > 0 && q.h[0].cancelled {
		q.dead--
		q.release(q.h.pop())
	}
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Time, true
}

// Run drives the queue until empty or until the clock passes horizon
// (horizon <= 0 means no limit). It returns the number of events fired.
//
//sns:hotpath
func (q *Queue) Run(horizon float64) int {
	fired := 0
	for len(q.h) > 0 {
		if horizon > 0 {
			if t, ok := q.Next(); !ok || t > horizon {
				break
			}
		}
		if q.Step() {
			fired++
		}
	}
	return fired
}
