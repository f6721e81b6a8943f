package svc

import (
	"encoding/json"
	"fmt"
	"io"

	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
)

// snapshotVersion guards the wire format; Restore rejects mismatches
// instead of misreading a stale file.
const snapshotVersion = 1

// snapshot is the serialized form of a whole core: configuration, every
// job record (with the effective reservations running jobs must return
// on completion), and the pending queue in its current order. Profiles
// are not serialized — Restore re-resolves them by Program from a
// profiler.DB — and neither is the clock: timestamps are core seconds,
// and the driver that owns the clock persists its own epoch alongside.
type snapshot struct {
	Version int         `json:"version"`
	Config  Config      `json:"config"`
	Jobs    []jobRecord `json:"jobs"`
	Queue   []queueItem `json:"queue"`

	// Capacity carries the raw per-node float capacity arrays. Replaying
	// the surviving reservations reconstructs integer state exactly, but
	// the float accumulators keep rounding residue from completed jobs
	// ((peak-a-b)+a vs peak-b), and those ULPs decide (score, id)
	// placement ties — FuzzSnapshotRoundTrip found a restored core
	// picking different nodes than the live one it cloned. Persisting
	// the floats verbatim makes restore bit-identical. Older snapshots
	// without the field still restore, from replayed reservations alone.
	Capacity *placement.Capacity `json:"capacity,omitempty"`
}

// jobRecord mirrors Job plus its unexported release bookkeeping. Res is
// written for running jobs whose per-node core counts differ, one entry
// per node with only Cores and the memory that follows them varying;
// every other running job is Uniform
// and carries Res0 alone, and a finished job carries no reservations it
// could still return. Documents from before launch resolved exclusive
// takes wrote Res for every CE job, "Exclusive":true with the resolved
// Cores; Restore reads both.
type jobRecord struct {
	ID        int      `json:"id"`
	Spec      JobSpec  `json:"spec"`
	State     JobState `json:"state"`
	SubmitSec float64  `json:"submit_sec"`
	StartSec  float64  `json:"start_sec"`
	FinishSec float64  `json:"finish_sec"`
	Scale     int      `json:"scale,omitempty"`
	NodesUsed int      `json:"nodes_used,omitempty"`
	Nodes     []int    `json:"nodes,omitempty"`

	Uniform bool                    `json:"uniform,omitempty"`
	Res0    placement.Reservation   `json:"res0,omitempty"`
	Res     []placement.Reservation `json:"res,omitempty"`
}

// queueItem mirrors placement.Item.
type queueItem struct {
	ID       int     `json:"id"`
	Submit   float64 `json:"submit"`
	Priority int     `json:"priority,omitempty"`
	Order    int     `json:"order"`
}

// Snapshot serializes the core's full state — every job, the effective
// reservations of running jobs, and the pending queue — so a daemon can
// survive a restart. Take it only between scheduling rounds (the daemon's
// scheduler loop owns the core, so any point in its loop qualifies).
func (c *Cluster) Snapshot(w io.Writer) error {
	s := snapshot{
		Version: snapshotVersion,
		Config:  c.cfg,
		Jobs:    make([]jobRecord, 0, len(c.jobs)),
	}
	for _, j := range c.jobs {
		rec := jobRecord{
			ID:        j.ID,
			Spec:      j.Spec,
			State:     j.State,
			SubmitSec: j.SubmitSec,
			StartSec:  j.StartSec,
			FinishSec: j.FinishSec,
			Scale:     j.Scale,
			NodesUsed: j.NodesUsed,
			Nodes:     j.Nodes,
			Uniform:   j.uniform,
			Res0:      j.res0,
		}
		if j.cores != nil {
			rec.Res = make([]placement.Reservation, len(j.cores))
			for i := range rec.Res {
				rec.Res[i] = j.reservation(i)
			}
		}
		s.Jobs = append(s.Jobs, rec)
	}
	capState := c.state.ExportCapacity()
	s.Capacity = &capState
	c.pending.Each(func(it placement.Item) {
		s.Queue = append(s.Queue, queueItem{
			ID: it.ID, Submit: it.Submit, Priority: it.Priority, Order: it.Order,
		})
	})
	enc := json.NewEncoder(w)
	return enc.Encode(&s)
}

// Restore rebuilds a core from a Snapshot stream: jobs are re-admitted
// with their recorded lifecycle, running jobs re-apply their effective
// reservations and the float capacity arrays are then installed
// verbatim (bit-identical capacity state, rounding residue and all),
// and the pending queue
// comes back in its snapshotted order, so the next scheduling round
// behaves exactly as it would have on the original process. Profiles are
// re-resolved from db by program name; db may be nil when no job carries
// a program. Like New, it runs before the rebuilt core has an owner
// goroutine, so it may mutate core state freely.
//
//sns:ownerinit
func Restore(r io.Reader, db *profiler.DB) (*Cluster, error) {
	var s snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("svc: decoding snapshot: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("svc: snapshot version %d, this build reads %d", s.Version, snapshotVersion)
	}
	c, err := New(s.Config)
	if err != nil {
		return nil, fmt.Errorf("svc: restoring config: %w", err)
	}
	for i := range s.Jobs {
		rec := &s.Jobs[i]
		if rec.ID != i {
			return nil, fmt.Errorf("svc: snapshot job %d carries id %d (records must be dense and ordered)", i, rec.ID)
		}
		if rec.State < Queued || rec.State > Cancelled {
			// A corrupt record would otherwise index the counts array
			// out of range below.
			return nil, fmt.Errorf("svc: snapshot job %d carries invalid state %d", rec.ID, int(rec.State))
		}
		spec := rec.Spec
		if spec.Program != "" && db != nil {
			if p, ok := db.Get(spec.Program, spec.CoresPerNode); ok {
				spec.Profile = p
			} else if c.cfg.Policy != placement.CE && (rec.State == Queued || rec.State == Running) {
				return nil, fmt.Errorf("svc: snapshot job %d program %q unprofiled at %d cores",
					rec.ID, spec.Program, spec.CoresPerNode)
			}
		}
		j := &Job{
			ID:        rec.ID,
			Spec:      spec,
			State:     rec.State,
			SubmitSec: rec.SubmitSec,
			StartSec:  rec.StartSec,
			FinishSec: rec.FinishSec,
			Scale:     rec.Scale,
			NodesUsed: rec.NodesUsed,
			Nodes:     rec.Nodes,
			uniform:   rec.Uniform,
			res0:      rec.Res0,
		}
		j.req = c.buildReq(&j.Spec)
		c.jobs = append(c.jobs, j)
		if spec.Name != "" {
			if id, taken := c.byName[spec.Name]; taken {
				return nil, fmt.Errorf("svc: snapshot jobs %d and %d share the name %q", id, j.ID, spec.Name)
			}
			c.byName[spec.Name] = j.ID
		}
		c.counts[j.State]++
		if j.State != Running {
			continue
		}
		if err := c.reapply(j, rec); err != nil {
			return nil, err
		}
	}
	// Overwrite the float capacity arrays with the snapshotted values:
	// reservation replay above rebuilt integer state exactly but cannot
	// reproduce the rounding residue completed jobs left in the float
	// accumulators, and that residue participates in placement ties.
	if s.Capacity != nil {
		if err := c.state.ImportCapacity(*s.Capacity); err != nil {
			return nil, fmt.Errorf("svc: restoring capacity: %w", err)
		}
	}
	queued := make([]bool, len(c.jobs))
	for _, it := range s.Queue {
		j, ok := c.Job(it.ID)
		if !ok || j.State != Queued {
			return nil, fmt.Errorf("svc: snapshot queues job %d, which is not a queued job", it.ID)
		}
		if queued[it.ID] {
			return nil, fmt.Errorf("svc: snapshot queues job %d twice", it.ID)
		}
		queued[it.ID] = true
		c.pending.Push(it.ID, it.Submit, it.Priority, it.Order)
	}
	if q := c.pending.Len(); q != c.counts[Queued] {
		return nil, fmt.Errorf("svc: snapshot queues %d jobs but %d are in state queued", q, c.counts[Queued])
	}
	return c, nil
}

// reapply takes a restored running job's reservations from the rebuilt
// state. The document comes from outside the program, so every value is
// held to what launch could have written before the state sees it — the
// kernel panics on a core count it cannot index, and Restore's contract
// is an error. Each node is checked against the cores still free when
// its turn comes, which also covers a node listed twice. The finish must
// be a time a Driver can file, which NaN and negative times are not.
func (c *Cluster) reapply(j *Job, rec *jobRecord) error {
	if !(j.FinishSec >= 0) {
		return fmt.Errorf("svc: snapshot job %d runs until %g s", j.ID, j.FinishSec)
	}
	if res := rec.Res; !j.uniform {
		if len(res) != len(j.Nodes) || len(res) == 0 {
			return fmt.Errorf("svc: snapshot job %d has %d reservations for %d nodes", j.ID, len(res), len(j.Nodes))
		}
		// Per-node records differ in Cores and the memory that follows
		// them only. Exclusive is dropped: a record that carries it also
		// carries the cores the take resolved to, and re-resolving
		// against the restored nodes would be wrong.
		j.res0 = res[0]
		j.res0.Cores, j.res0.MemGB, j.res0.Exclusive = 0, 0, false
		j.cores = make([]int, len(res))
		for i, r := range res {
			j.cores[i] = r.Cores
			if r.MemGB != j.reservation(i).MemGB { //lint:floateq launch wrote this very product
				return fmt.Errorf("svc: snapshot job %d reservation %d holds %g GB, not %d cores' worth", j.ID, i, r.MemGB, r.Cores)
			}
			r.Cores, r.MemGB, r.Exclusive = 0, 0, false
			if r != j.res0 {
				return fmt.Errorf("svc: snapshot job %d reservation %d differs from the job's first in more than cores", j.ID, i)
			}
		}
	}
	p := j.res0
	if p.Exclusive {
		return fmt.Errorf("svc: snapshot job %d has an exclusive prototype reservation", j.ID)
	}
	if p.Ways < 0 || p.BW < 0 || p.MemGB < 0 || p.IOBW < 0 || j.Spec.MemGBPerProc < 0 {
		return fmt.Errorf("svc: snapshot job %d reserves negative ways, bandwidth or memory", j.ID)
	}
	idx := c.state.Index()
	for i, id := range j.Nodes {
		if id < 0 || id >= c.cfg.Nodes {
			return fmt.Errorf("svc: snapshot job %d placed on node %d of a %d-node cluster", j.ID, id, c.cfg.Nodes)
		}
		r := j.reservation(i)
		if r.Cores < 0 || r.Cores > idx.Free(id) {
			return fmt.Errorf("svc: snapshot job %d reserves %d cores on node %d, which has %d free", j.ID, r.Cores, id, idx.Free(id))
		}
		c.state.Reserve(id, r)
	}
	return nil
}
