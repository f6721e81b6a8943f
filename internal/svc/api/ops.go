package api

import (
	"fmt"
	"sort"
	"sync"
)

// OpStatus is an op's position in its tiny lifecycle: created pending
// by the HTTP handler, applied by the scheduler goroutine, and then
// either done or failed; it never moves again. The exhaustive lint
// pass keeps switches over it covering all three states.
//
//sns:enum
type OpStatus string

// Op states.
const (
	OpPending OpStatus = "pending"
	OpDone    OpStatus = "done"
	OpFailed  OpStatus = "failed"
)

// Op is one asynchronous operation: the daemon accepts a mutation with
// 202 Accepted and a pointer to this record, and the client polls it
// until the scheduler goroutine has applied the mutation. The record
// survives daemon restarts (it is part of the snapshot), so a client can
// resolve an op it was polling when the daemon died.
type Op struct {
	ID string `json:"id"`
	// Kind is the mutation: "submit" or "cancel".
	Kind string `json:"kind"`
	// Status resolves exactly once, OpPending to OpDone or OpFailed:
	// resolve and load write it only after checking it pending.
	Status OpStatus `json:"status"`
	// RequestID echoes the X-Request-Id that created the op.
	RequestID string `json:"request_id,omitempty"`
	// JobID is the affected job, valid once Status is done (and from
	// creation for cancel ops).
	JobID int `json:"job_id"`
	// Deduped marks a submit that resolved to an existing job via its
	// idempotency name instead of admitting a duplicate.
	Deduped bool `json:"deduped,omitempty"`
	// Error carries the failure when Status is failed.
	Error string `json:"error,omitempty"`
	// CreatedSec/AppliedSec are core (virtual) timestamps.
	CreatedSec float64 `json:"created_sec"`
	AppliedSec float64 `json:"applied_sec,omitempty"`
}

// opTable is the daemon's operation registry. Handlers create ops from
// request goroutines and the scheduler goroutine resolves them, so the
// table takes a lock; the core itself never does. The statefield lint
// pass proves the table round-trips through the daemon snapshot.
//
//sns:persist daemonSnapshot
type opTable struct {
	mu sync.Mutex
	// seq and pending are recomputed from the records by load.
	//
	//sns:guardedby mu
	//sns:derived load
	seq int
	//sns:guardedby mu
	ops map[string]*Op
	//sns:guardedby mu
	//sns:derived load
	pending int
}

func newOpTable() *opTable {
	return &opTable{ops: make(map[string]*Op)}
}

// create registers a new pending op and returns a copy of it.
func (t *opTable) create(kind, requestID string, jobID int, now float64) Op {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	op := &Op{
		ID:         fmt.Sprintf("op-%d", t.seq),
		Kind:       kind,
		Status:     OpPending,
		RequestID:  requestID,
		JobID:      jobID,
		CreatedSec: now,
	}
	t.ops[op.ID] = op
	t.pending++
	return *op
}

// resolve moves a pending op to done or failed.
func (t *opTable) resolve(id string, jobID int, deduped bool, err error, now float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op, ok := t.ops[id]
	if !ok || op.Status != OpPending {
		return
	}
	op.JobID = jobID
	op.Deduped = deduped
	op.AppliedSec = now
	if err != nil {
		op.Status = OpFailed
		op.Error = err.Error()
	} else {
		op.Status = OpDone
	}
	t.pending--
}

// get returns a copy of an op.
func (t *opTable) get(id string) (Op, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	op, ok := t.ops[id]
	if !ok {
		return Op{}, false
	}
	return *op, true
}

// pendingCount returns how many ops await the scheduler goroutine — the
// admission throttle's gauge.
func (t *opTable) pendingCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}

// all returns every op ordered by creation (the table's sequence), for
// snapshots.
func (t *opTable) all() []Op {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Op, 0, len(t.ops))
	for _, op := range t.ops {
		out = append(out, *op)
	}
	sort.Slice(out, func(i, j int) bool { return opSeq(out[i].ID) < opSeq(out[j].ID) })
	return out
}

// load rebuilds the table from a snapshot. Ops that were pending when
// the snapshot was taken come back failed: the daemon snapshots only
// after draining its command queue, so a pending op in a snapshot means
// the process died before applying it — the client must retry (Submit
// retries are deduplicated by job name). The records come from disk, so
// an empty ID or a status the daemon never writes is an error: a client
// would poll such an op forever.
func (t *opTable) load(ops []Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	maxSeq := 0
	for i := range ops {
		op := ops[i]
		if op.ID == "" {
			return fmt.Errorf(`op "": record %d has no id`, i)
		}
		switch op.Status {
		case OpPending:
			op.Status = OpFailed
			op.Error = "daemon restarted before applying this op; retry"
		case OpDone, OpFailed:
		default:
			return fmt.Errorf("op %q: invalid status %q", op.ID, op.Status)
		}
		t.ops[op.ID] = &op
		if s := opSeq(op.ID); s > maxSeq {
			maxSeq = s
		}
	}
	t.seq = maxSeq
	t.pending = 0
	return nil
}

// opSeq extracts the numeric suffix of an op ID for ordering. A
// malformed ID (impossible for table-minted ops) scans as 0 and sorts
// first, so the error is deliberately dropped.
func opSeq(id string) int {
	var n int
	_, _ = fmt.Sscanf(id, "op-%d", &n)
	return n
}
