// Package invariant is the runtime half of the determinism-and-safety
// contract that internal/lint checks statically: an auditor that
// attaches to the execution engine, the cluster bookkeeping, and the
// placement kernel's SimState, and asserts resource conservation at
// every event.
//
// The auditor is read-only — it never mutates the state it checks, so
// golden digests stay bit-identical with auditing on or off. It panics
// on the first violation with an "invariant:" message: a broken
// conservation law means simulation results are garbage, and failing
// loudly at the first bad event beats debugging a corrupted digest.
//
// Activation: the auditor is on inside `go test` binaries by default
// (every hook checks Active) and off in production binaries unless the
// operator passes -invariants to snsbench/tracegen, which calls Enable.
// CheckEngine is allocation-free so the engine's zero-allocation
// recompute guarantee (exec/alloc_test.go) holds with auditing on.
package invariant

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spreadnshare/internal/cluster"
	"spreadnshare/internal/exec"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/units"
)

// mode is the activation override: 0 = default (on under `go test`),
// 1 = forced on, 2 = forced off. Atomic because experiment harnesses
// run one scheduler per goroutine.
var mode atomic.Int32

// Active reports whether auditors should attach. Defaults to true
// inside test binaries, false elsewhere; Enable/Disable override.
func Active() bool {
	switch mode.Load() {
	case 1:
		return true
	case 2:
		return false
	}
	return testing.Testing()
}

// Enable forces auditing on (the -invariants flag of snsbench/tracegen).
func Enable() { mode.Store(1) }

// Disable forces auditing off (benchmark harnesses that must measure
// the unaudited hot path).
func Disable() { mode.Store(2) }

// Pause disables auditing and returns a restore function, for
// benchmarks inside test binaries: defer Pause()().
func Pause() func() {
	prev := mode.Swap(2)
	return func() { mode.Store(prev) }
}

// Auditor checks one simulation's state against the conservation laws.
// One auditor serves one simulation (it is not goroutine-safe; parallel
// sequences each get their own, like the engines they watch).
type Auditor struct {
	// Name prefixes violation messages ("sched", "trace").
	Name string
	// Eps is the float-accumulation tolerance for bandwidth, memory,
	// and I/O sums (default 1e-6).
	Eps float64
	// Stride samples every Stride-th audit point when > 1, bounding
	// audit cost on large clusters (32K-node replays). Monotonicity
	// checks still run at every point — they are O(1).
	Stride int

	tick    int
	lastNow float64
	queued  map[int]placement.Item // job id -> first-seen queue record
}

// New returns an auditor with default tolerances.
func New(name string) *Auditor {
	return &Auditor{Name: name, Eps: 1e-6, Stride: 1, queued: map[int]placement.Item{}}
}

// failf panics with the violation. Formatting allocates, but only on
// the failure path, where the process is about to die anyway.
func (a *Auditor) failf(format string, args ...any) {
	panic("invariant: " + a.Name + ": " + fmt.Sprintf(format, args...))
}

// Begin advances the audit-point counter and reports whether this point
// is sampled. Call it once per scheduling event before the O(nodes)
// checks.
func (a *Auditor) Begin() bool {
	a.tick++
	return a.Stride <= 1 || a.tick%a.Stride == 0
}

// CheckEngine asserts per-node conservation on the execution engine:
// active cores and CAT ways within the node's capacity, achieved
// bandwidth within the roofline for the active core count, and the
// resident lists in strict job-ID order. It is allocation-free so the
// engine can run it after every recompute without breaking the
// zero-allocation guarantee of the hot path.
func (a *Auditor) CheckEngine(e *exec.Engine) {
	spec := e.Spec()
	for n := 0; n < spec.Nodes; n++ {
		c := e.NodeActiveCores(n)
		if c < 0 || c > spec.Node.Cores.Int() {
			a.failf("node %d holds %d active cores, capacity %d", n, c, spec.Node.Cores)
		}
		w := e.NodeAllocWays(n)
		if w < 0 || w > spec.Node.LLCWays {
			a.failf("node %d holds %d allocated ways, capacity %d", n, w, spec.Node.LLCWays)
		}
		bw := e.NodeBandwidth(n).Float64()
		roof := spec.Node.StreamBandwidth(units.CoresOf(c)).Float64()
		if bw < -a.Eps || bw > roof+a.Eps {
			a.failf("node %d bandwidth %g GB/s outside [0, %g]", n, bw, roof)
		}
		if !e.NodeResidentsConsistent(n) {
			a.failf("node %d resident list broken (ID order, cores, or slot back-pointers)", n)
		}
	}
}

// CheckCluster asserts the cluster bookkeeping's conservation laws:
// every aggregate within the node's capacity, the cached integer
// aggregates equal to the sum over the allocation list, the list in
// strict job-ID order, and exclusive nodes held by exactly one job.
func (a *Auditor) CheckCluster(cl *cluster.State) {
	spec := cl.Spec.Node
	for _, n := range cl.Nodes {
		used := n.UsedCores()
		if used < 0 || used > spec.Cores.Int() {
			a.failf("node %d uses %d cores, capacity %d", n.ID, used, spec.Cores)
		}
		if w := n.AllocWays(); w < 0 || w > spec.LLCWays {
			a.failf("node %d allocates %d ways, capacity %d", n.ID, w, spec.LLCWays)
		}
		if bw := n.AllocBW().Float64(); bw < -a.Eps || bw > spec.PeakBandwidth.Float64()+a.Eps {
			a.failf("node %d reserves %g GB/s bandwidth, peak %g", n.ID, bw, spec.PeakBandwidth)
		}
		if m := n.AllocMem(); m < -a.Eps || m > spec.MemoryGB+a.Eps {
			a.failf("node %d reserves %g GB memory, capacity %g", n.ID, m, spec.MemoryGB)
		}
		if io := n.AllocIO().Float64(); io < -a.Eps || io > spec.IOBandwidth.Float64()+a.Eps {
			a.failf("node %d reserves %g GB/s I/O, capacity %g", n.ID, io, spec.IOBandwidth)
		}
		jobs := n.Jobs()
		if n.Exclusive() && len(jobs) != 1 {
			a.failf("node %d is exclusive but hosts %d jobs", n.ID, len(jobs))
		}
		cores, prev := 0, -1
		ways := units.Ways(0)
		for _, id := range jobs {
			if id <= prev {
				a.failf("node %d allocation list out of job-ID order at job %d", n.ID, id)
			}
			prev = id
			al, ok := n.Alloc(id)
			if !ok {
				a.failf("node %d lists job %d without a reservation", n.ID, id)
			}
			cores += al.Cores
			ways += al.Ways
		}
		if cores != used {
			a.failf("node %d cached core count %d, allocations sum to %d", n.ID, used, cores)
		}
		if ways != n.AllocWays() {
			a.failf("node %d cached way count %d, allocations sum to %d", n.ID, n.AllocWays(), ways)
		}
	}
}

// CheckIndex asserts the free-core index's internal consistency: bucket
// populations match their counters, sum to the node count, and every
// bucketed node reports the bucket's free-core count.
func (a *Auditor) CheckIndex(x *placement.CoreIndex) {
	total := 0
	for f := 0; f <= x.Cores(); f++ {
		total += x.Count(f)
		pop := 0
		x.Scan(f, func(id int) bool {
			pop++
			if x.Free(id) != f {
				a.failf("index bucket %d holds node %d whose free count is %d", f, id, x.Free(id))
			}
			return true
		})
		if pop != x.Count(f) {
			a.failf("index bucket %d population %d, counter says %d", f, pop, x.Count(f))
		}
	}
	if total != x.Len() {
		a.failf("index counters sum to %d nodes, cluster has %d", total, x.Len())
	}
}

// CheckIndexAgainstCluster asserts the resident-set/CoreIndex agreement
// the scheduler's syncIndex maintains: every node's indexed free-core
// count equals the bookkeeping's.
func (a *Auditor) CheckIndexAgainstCluster(x *placement.CoreIndex, cl *cluster.State) {
	for _, n := range cl.Nodes {
		if x.Free(n.ID) != n.FreeCores() {
			a.failf("index says node %d has %d free cores, bookkeeping says %d",
				n.ID, x.Free(n.ID), n.FreeCores())
		}
	}
}

// CheckEngineAgainstCluster asserts that the engine's resident set and
// the scheduler's bookkeeping agree on every node's occupied cores.
// Valid at scheduling points only: inside a job-finish event the engine
// drops residents before the bookkeeping releases, transiently
// disagreeing by design.
func (a *Auditor) CheckEngineAgainstCluster(e *exec.Engine, cl *cluster.State) {
	for _, n := range cl.Nodes {
		if got, want := e.NodeActiveCores(n.ID), n.UsedCores(); got != want {
			a.failf("engine runs %d cores on node %d, bookkeeping reserves %d", got, n.ID, want)
		}
	}
}

// CheckSimState asserts the trace backend's conservation laws: every
// free counter within [0, capacity] (a negative free counter means the
// search over-reserved), the intensive-job counts non-negative, and the
// core index internally consistent.
func (a *Auditor) CheckSimState(s *placement.SimState) {
	spec := s.Spec()
	for id := 0; id < s.Len(); id++ {
		if w := s.FreeWays(id); w < 0 || w > spec.LLCWays {
			a.failf("node %d has %d free ways outside [0, %d]", id, w, spec.LLCWays)
		}
		if bw := s.FreeBW(id).Float64(); bw < -a.Eps || bw > spec.PeakBandwidth.Float64()+a.Eps {
			a.failf("node %d has %g GB/s free bandwidth outside [0, %g]", id, bw, spec.PeakBandwidth)
		}
		if m := s.FreeMem(id); m < -a.Eps || m > spec.MemoryGB+a.Eps {
			a.failf("node %d has %g GB free memory outside [0, %g]", id, m, spec.MemoryGB)
		}
		if io := s.FreeIO(id).Float64(); io < -a.Eps || io > spec.IOBandwidth.Float64()+a.Eps {
			a.failf("node %d has %g GB/s free I/O outside [0, %g]", id, io, spec.IOBandwidth)
		}
		if s.IntensiveCount(id) < 0 {
			a.failf("node %d has negative intensive-job count %d", id, s.IntensiveCount(id))
		}
	}
	a.CheckIndex(s.Index())
}

// CheckScoreCache verifies what a search keeps between calls against
// the live backend it reads. The score cache: clean nodes filed under
// their current free-core bucket with bit-identical cached scores,
// bucket lists in strict ascending (score, id) order, and every flushed
// node recoverable from its bucket. The remembered failures: for every
// entry, a count equal to its host set's population and a bit for every
// clean node that says whether the node can host the entry's demand now
// — so a mutation that changes capacity without invalidating the node
// fails here, not in a digest. The scale ladders: every memoised
// (profile, alpha) ladder equal to one resolved from its profile now, so
// a profile edited after a request carried it fails here too. A search with none of the three
// passes vacuously.
func (a *Auditor) CheckScoreCache(s *placement.Search) {
	if s == nil {
		return
	}
	if err := s.Audit(); err != nil {
		a.failf("%v", err)
	}
}

// ObserveQueue asserts the pending queue's aging laws at an event: the
// clock never runs backwards, and a waiting job's submission record
// never changes — together, no queued job's age ever regresses. Runs at
// every audit point regardless of Stride (it is O(queue), not O(nodes),
// and monotonicity cannot be sampled).
func (a *Auditor) ObserveQueue(now float64, q *placement.Pending) {
	if now < a.lastNow {
		a.failf("scheduling clock ran backwards: %g after %g", now, a.lastNow)
	}
	a.lastNow = now
	q.Each(func(it placement.Item) {
		if it.Submit > now+a.Eps {
			a.failf("job %d queued with submit time %g in the future of %g", it.ID, it.Submit, now)
		}
		rec, seen := a.queued[it.ID]
		if !seen {
			a.queued[it.ID] = it
			return
		}
		if rec.Submit != it.Submit || rec.Priority != it.Priority || rec.Order != it.Order {
			a.failf("job %d queue record changed while waiting: had submit=%g pri=%d order=%d, now submit=%g pri=%d order=%d",
				it.ID, rec.Submit, rec.Priority, rec.Order, it.Submit, it.Priority, it.Order)
		}
	})
}
