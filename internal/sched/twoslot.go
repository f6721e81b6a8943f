package sched

import (
	"spreadnshare/internal/exec"
)

// The TwoSlot policy reimplements the co-scheduling approach of the
// paper's closest related work (ClavisMO, Poncos — Section 7): each
// physical node is statically divided into two half-node slots; jobs are
// classified into shared-resource *intensive* and *non-intensive* groups,
// and a node may host at most one intensive job, pairing it with a
// non-intensive one to dampen contention. Unlike SNS it neither scales
// jobs nor partitions the cache, and its two-slot granularity is rigid —
// which is exactly the contrast the paper draws. The slot search itself
// lives in the placement kernel; this file keeps the job classification,
// which needs the profile database and the engine's running-job table.

// bwIntensive classifies a job from its profile: a job whose compact-run
// bandwidth drains more than a third of the node's peak (or, without a
// profile, whose model says so) is shared-resource intensive.
func (s *Scheduler) bwIntensive(j *exec.Job) bool {
	if s.db != nil {
		if p, ok := s.db.Get(j.Prog.Name, j.Procs); ok {
			if base, ok := p.AtK(1); ok {
				return base.BWAt(base.FullWays()) > s.spec.Node.PeakBandwidth.Float64()/3
			}
		}
	}
	return j.Prog.BWPerCoreRef*float64(min(j.Procs, s.spec.Node.Cores.Int())) >
		s.spec.Node.PeakBandwidth.Float64()/3
}

// nodeHasIntensive reports whether any job on the node is classified
// intensive.
func (s *Scheduler) nodeHasIntensive(id int) bool {
	for _, jid := range s.cl.Nodes[id].Jobs() {
		if j, ok := s.eng.Job(jid); ok && s.bwIntensive(j) {
			return true
		}
	}
	return false
}
