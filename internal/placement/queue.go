package placement

import (
	"cmp"
	"slices"
)

// Item is one queued job: an opaque id plus the fields the queue
// discipline ranks by.
type Item struct {
	// ID is the caller's job handle.
	ID int
	// Submit is the submission time in seconds.
	Submit float64
	// Priority is the base priority (higher first).
	Priority int
	// Order breaks rank ties (lower first): the submission sequence.
	Order int
}

// Pending is the shared age-based priority queue of both schedulers. A
// job's effective rank is its base priority plus one level per aging
// period waited, so long-delayed submissions climb past fresher
// higher-priority ones; ties go to submission order (FIFO).
//
// Two anti-starvation/backfill disciplines compose:
//
//   - AgeLimitSec > 0: a job that failed to place and has waited past
//     the limit blocks younger jobs from overtaking it in this pass
//     (the testbed scheduler's discipline). NoBackfill blocks at the
//     first failure, making the queue strictly FIFO.
//   - ScanDepth > 0: a pass stops after that many failed placement
//     attempts (the trace replay's bounded backfill depth; 0 =
//     unlimited).
type Pending struct {
	// AgingPeriodSec is the wait that promotes a job one priority
	// level (<= 0: one second, i.e. plain FIFO ranking by wait).
	AgingPeriodSec float64
	// AgeLimitSec is the wait beyond which a stuck job blocks younger
	// jobs (<= 0: never blocks).
	AgeLimitSec float64
	// NoBackfill stops every pass at the first unplaceable job.
	NoBackfill bool
	// ScanDepth bounds failed attempts per pass (<= 0: unlimited).
	ScanDepth int

	items []Item
}

// Push enqueues a job. Order is the caller's submission sequence number,
// used to break rank ties deterministically.
func (q *Pending) Push(id int, submit float64, priority, order int) {
	q.items = append(q.items, Item{ID: id, Submit: submit, Priority: priority, Order: order})
}

// Len returns the number of queued jobs.
func (q *Pending) Len() int { return len(q.items) }

// Each visits every queued item in current queue order. The queue must
// not be mutated during the visit; the invariant auditor uses this to
// check that no job's submission record regresses while it waits.
func (q *Pending) Each(fn func(Item)) {
	for _, it := range q.items {
		fn(it)
	}
}

// First returns the head of the queue as of the last Schedule pass (the
// highest-ranked stuck job), or false when empty.
func (q *Pending) First() (Item, bool) {
	if len(q.items) == 0 {
		return Item{}, false
	}
	return q.items[0], true
}

// Remove deletes the queued job with the given id, preserving the
// relative order of the remaining items. It reports whether the job was
// queued. The live scheduler core's cancel path is the caller; the
// simulators never remove jobs except by placing them.
func (q *Pending) Remove(id int) bool {
	for i := range q.items {
		if q.items[i].ID != id {
			continue
		}
		copy(q.items[i:], q.items[i+1:])
		q.items[len(q.items)-1] = Item{}
		q.items = q.items[:len(q.items)-1]
		return true
	}
	return false
}

// Schedule runs one scheduling pass at time now: rank the queue, then
// offer jobs to try in rank order, removing those it accepts. try must
// return true when the job was placed.
func (q *Pending) Schedule(now float64, try func(id int) bool) {
	period := q.AgingPeriodSec
	if period <= 0 {
		period = 1
	}
	rank := func(it Item) float64 {
		return float64(it.Priority) + (now-it.Submit)/period
	}
	slices.SortStableFunc(q.items, func(a, b Item) int {
		// Highest rank first; exact ties go to submission order.
		return cmp.Or(cmp.Compare(rank(b), rank(a)), cmp.Compare(a.Order, b.Order))
	})
	kept := q.items[:0]
	failures := 0
	blocked := false
	for _, it := range q.items {
		if blocked || (q.ScanDepth > 0 && failures >= q.ScanDepth) {
			kept = append(kept, it)
			continue
		}
		if try(it.ID) {
			continue
		}
		kept = append(kept, it)
		failures++
		if q.NoBackfill || (q.AgeLimitSec > 0 && now-it.Submit > q.AgeLimitSec) {
			// Strict FIFO, or anti-starvation: nothing younger may
			// overtake.
			blocked = true
		}
	}
	// kept aliases items' prefix; clear the tail so removed jobs do not
	// linger in the backing array.
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = Item{}
	}
	q.items = kept
}
