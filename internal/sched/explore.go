package sched

import (
	"fmt"

	"spreadnshare/internal/exec"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/units"
)

// Piggy-backed profiling (Section 4.2): with an Explorer attached, a job
// whose program has no profile is not scheduled CS-style; instead its run
// *is* the next profiling trial — placed exclusively at the exploration's
// current scale factor with the LLC-rotation instrumentation attached.
// When the exploration completes, the assembled profile enters the
// database and subsequent submissions are placed by the normal SNS path.

// explorerState carries the instrumentation configuration.
type explorerState struct {
	ex         *profiler.Explorer
	sampleWays []int
	episodeSec float64
	// trials maps a running trial job to its scale factor and sample
	// accumulators.
	trials map[int]*trialRun
}

type trialRun struct {
	k          int
	ipc, bw, m map[int]*acc
}

type acc struct {
	sum   float64
	count int
}

// AttachExplorer enables piggy-backed profiling for unprofiled programs
// under SNS. Sample ways and the episode length default to the paper's
// {2, 4, 8, full} at 5 s when zero values are passed.
func (s *Scheduler) AttachExplorer(ex *profiler.Explorer, sampleWays []int, episodeSec float64) {
	if len(sampleWays) == 0 {
		sampleWays = []int{2, 4, 8, s.spec.Node.LLCWays.Int()}
	}
	if episodeSec <= 0 {
		episodeSec = 5
	}
	s.explore = &explorerState{
		ex:         ex,
		sampleWays: sampleWays,
		episodeSec: episodeSec,
		trials:     make(map[int]*trialRun),
	}
}

// placeTrial attempts to place an unprofiled job as its program's next
// exploration trial: exclusive nodes at the trial scale. It returns
// trial=false when exploration is over or the scale cannot run, letting
// the caller fall back; trial=true with ok=false when the trial placement
// simply does not fit right now.
func (s *Scheduler) placeTrial(j *exec.Job) (d decision, ok, trial bool) {
	st := s.explore
	for {
		k, more := st.ex.NextTrial(j.Prog.Name, j.Procs)
		if !more {
			return decision{}, false, false
		}
		n := k * s.minFootprint(j.Procs)
		if n > s.spec.Nodes || !scaleRunnable(j.Prog, j.Procs, n) {
			st.ex.SkipTrial(j.Prog.Name, j.Procs)
			continue
		}
		idle := s.cl.IdleNodes()
		if len(idle) < n {
			return decision{}, false, true
		}
		return decision{
			nodes:     idle[:n],
			cores:     exec.EvenSplit(j.Procs, n),
			exclusive: true,
			trialK:    k,
		}, true, true
	}
}

// startTrialInstrumentation attaches the LLC-rotation sampling to a
// freshly launched trial job.
func (s *Scheduler) startTrialInstrumentation(j *exec.Job, k int) {
	st := s.explore
	tr := &trialRun{
		k:   k,
		ipc: make(map[int]*acc), bw: make(map[int]*acc), m: make(map[int]*acc),
	}
	st.trials[j.ID] = tr
	idx := 0
	var episode func()
	episode = func() {
		if j.State != exec.Running {
			return
		}
		ways := st.sampleWays[idx%len(st.sampleWays)]
		idx++
		if err := s.eng.SetJobWays(j.ID, units.WaysOf(ways)); err != nil {
			return
		}
		s.eng.Queue().At(s.eng.Now()+st.episodeSec/2, func() {
			if j.State != exec.Running {
				return
			}
			metrics, err := s.eng.JobMetrics(j.ID)
			if err != nil {
				return
			}
			add := func(mm map[int]*acc, v float64) {
				a := mm[ways]
				if a == nil {
					a = &acc{}
					mm[ways] = a
				}
				a.sum += v
				a.count++
			}
			add(tr.ipc, metrics.IPC.Float64())
			add(tr.bw, metrics.BWPerNode.Float64())
			add(tr.m, metrics.MissPct)
		})
		s.eng.Queue().At(s.eng.Now()+st.episodeSec, episode)
	}
	s.eng.Queue().At(s.eng.Now(), episode)
}

// finishTrial records a completed trial and, when exploration is done,
// assembles the profile into the database.
func (s *Scheduler) finishTrial(j *exec.Job) {
	st := s.explore
	tr, ok := st.trials[j.ID]
	if !ok {
		return
	}
	delete(st.trials, j.ID)
	avg := func(mm map[int]*acc) map[int]float64 {
		out := make(map[int]float64, len(mm))
		for w, a := range mm {
			if a.count > 0 {
				out[w] = a.sum / float64(a.count)
			}
		}
		return out
	}
	maxW := s.spec.Node.LLCWays.Int()
	sp := profiler.ScaleProfile{
		K:            tr.k,
		Nodes:        j.SpanNodes(),
		CoresPerNode: j.CoresByNode[0],
		TimeSec:      j.RunTime(),
		IPCByWay:     profiler.Interpolate(avg(tr.ipc), maxW),
		BWByWay:      profiler.Interpolate(avg(tr.bw), maxW),
		MissByWay:    profiler.Interpolate(avg(tr.m), maxW),
	}
	if err := st.ex.RecordTrial(j.Prog.Name, j.Procs, sp); err != nil {
		panic(fmt.Sprintf("sched: trial bookkeeping: %v", err))
	}
	// Skip scales this program can never run at (framework or cluster
	// limits), so exploration concludes without waiting for futile
	// submissions.
	for {
		k, ok := st.ex.NextTrial(j.Prog.Name, j.Procs)
		if !ok {
			break
		}
		n := k * s.minFootprint(j.Procs)
		if n <= s.spec.Nodes && scaleRunnable(j.Prog, j.Procs, n) {
			break
		}
		st.ex.SkipTrial(j.Prog.Name, j.Procs)
	}
	if st.ex.Done(j.Prog.Name, j.Procs) {
		p, err := st.ex.Finish(j.Prog.Name, j.Procs)
		if err != nil {
			panic(fmt.Sprintf("sched: trial assembly: %v", err))
		}
		s.db.Put(p)
	}
}
