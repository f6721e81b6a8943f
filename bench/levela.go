package main

import (
	"bytes"
	"fmt"

	"spreadnshare/internal/experiments"
	"spreadnshare/internal/sim"
	"spreadnshare/internal/svc"
	"spreadnshare/internal/trace"
)

// placed is one job a scheduling round launched.
type placed struct {
	id            int
	start, finish float64
	scale         int
	nodes         []int
}

// replayCore is what the bench-owned event loop drives: the real
// svc.Cluster at Level A, the bench-wired placement kernel at Level B.
// Both record their own spans around every call they make into the
// layer below them.
type replayCore interface {
	// submit admits one job at time now and returns its dense id.
	submit(spec svc.JobSpec, now float64) int
	// round runs one admission round; the slice is reused.
	round(now float64) []placed
	complete(id int, now float64)
	queued() int
	// failure is the first error a call into the layer returned.
	failure() error
}

// buildSpecs turns a mapped trace into the job specs trace.Simulate
// would submit under cfg.
func buildSpecs(jobs []trace.Job, env *experiments.Env, cfg trace.SimConfig) ([]svc.JobSpec, error) {
	specs := make([]svc.JobSpec, len(jobs))
	for i, tj := range jobs {
		spec := svc.JobSpec{
			Program:      tj.Program,
			BaseNodes:    tj.Nodes,
			CoresPerNode: cfg.CoresPerJobNode,
			RuntimeSec:   tj.RuntimeSec,
			Alpha:        cfg.Alpha,
			MultiNode:    true,
		}
		if cfg.Policy != trace.CE {
			p, ok := env.DB.Get(tj.Program, cfg.CoresPerJobNode)
			if !ok {
				return nil, fmt.Errorf("job %d program %q unprofiled", tj.ID, tj.Program)
			}
			spec.Profile = p
			spec.Intensive = cfg.Policy == trace.TwoSlot && svc.BWIntensive(p, env.Spec.Node)
		}
		specs[i] = spec
	}
	return specs, nil
}

// driveReplay is trace.simulate's event loop (one submission event per
// job, a round after every submission and every completion) re-driven
// from the benchmark with spans: trace.loop around the whole replay,
// sim.queue around Queue.Run, trace.event around every event callback.
// level suffixes the three loop span names, so the Level A and Level B
// replays of one repetition stay apart in the account. mid, when set,
// runs once at the replay's midpoint, between events. The loop runs on
// the calling goroutine and nothing escapes it, so it owns its core
// exactly as trace.simulate does.
//
//sns:goroutine core
func driveReplay(tr *tracer, c replayCore, level string, jobs []trace.Job, specs []svc.JobSpec, mid func()) ([]jobOut, error) {
	loopName, queueName, eventName := "trace.loop"+level, "sim.queue"+level, "trace.event"+level
	loop := tr.begin(loopName)
	q := &sim.Queue{}
	outs := make([]jobOut, len(jobs))
	byID := make([]int, 0, len(jobs)) // core id -> trace index
	events := 0
	var schedule func()
	event := func(fn func()) func() {
		return func() {
			if mid != nil && events == len(jobs) {
				mid()
			}
			events++
			ev := tr.begin(eventName)
			fn()
			schedule()
			tr.end(ev)
		}
	}
	schedule = func() {
		for _, p := range c.round(q.Now()) {
			o := &outs[byID[p.id]]
			o.Start, o.Finish, o.Scale, o.Nodes = p.start, p.finish, p.scale, p.nodes
			id := p.id
			q.At(p.finish, event(func() { c.complete(id, q.Now()) }))
		}
	}
	for i := range jobs {
		outs[i].Submit = jobs[i].SubmitSec
		outs[i].Procs = jobs[i].Nodes * specs[i].CoresPerNode
		q.At(jobs[i].SubmitSec, event(func() {
			byID = append(byID, i)
			if id := c.submit(specs[i], q.Now()); id != len(byID)-1 {
				panic(fmt.Sprintf("bench: core assigned id %d to submission %d", id, len(byID)-1))
			}
		}))
	}
	run := tr.begin(queueName)
	q.Run(0)
	tr.end(run)
	tr.end(loop)
	if err := c.failure(); err != nil {
		return nil, err
	}
	if n := c.queued(); n > 0 {
		return outs, fmt.Errorf("%d jobs never placed", n)
	}
	return outs, nil
}

// levelA drives the real svc.Cluster.
type levelA struct {
	tr    *tracer
	core  *svc.Cluster
	model svc.RuntimeModel
	buf   []placed
	err   error
}

// newLevelA builds the core exactly as trace.simulate does for cfg.
func newLevelA(tr *tracer, env *experiments.Env, cfg trace.SimConfig) (*levelA, error) {
	core, err := svc.New(svc.Config{
		Node:           env.Spec.Node,
		Nodes:          cfg.ClusterNodes,
		Policy:         cfg.Policy,
		MaxScale:       cfg.MaxScale,
		ScanDepth:      cfg.ScanDepth,
		AgingPeriodSec: 1,
		AuditLabel:     "bench",
	})
	if err != nil {
		return nil, err
	}
	return &levelA{tr: tr, core: core, model: svc.PolicyRuntime(cfg.Policy, env.Spec.Node)}, nil
}

func (a *levelA) submit(spec svc.JobSpec, now float64) int {
	s := a.tr.begin("svc.submit")
	j, err := a.core.Submit(spec, now)
	a.tr.end(s)
	if err != nil {
		a.fail(err)
		return -1
	}
	return j.ID
}

func (a *levelA) round(now float64) []placed {
	s := a.tr.begin("svc.round")
	jobs := a.core.ScheduleRound(now, a.model)
	a.tr.end(s)
	a.buf = a.buf[:0]
	for _, j := range jobs {
		a.buf = append(a.buf, placed{id: j.ID, start: j.StartSec, finish: j.FinishSec, scale: j.Scale, nodes: j.Nodes})
	}
	return a.buf
}

func (a *levelA) complete(id int, now float64) {
	s := a.tr.begin("svc.complete")
	err := a.core.Complete(id, now)
	a.tr.end(s)
	if err != nil {
		a.fail(err)
	}
}

func (a *levelA) queued() int    { return a.core.QueuedLen() }
func (a *levelA) failure() error { return a.err }

func (a *levelA) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// snapshotRestore serializes the core mid-replay (running and queued
// jobs present), restores a second core from the bytes, and reports
// the snapshot size. The caller wraps it in a bench.snapshot span so
// the loop accounts exclude it.
func (a *levelA) snapshotRestore(env *experiments.Env) (mb float64) {
	var buf bytes.Buffer
	s := a.tr.begin("svc.snapshot")
	err := a.core.Snapshot(&buf)
	a.tr.end(s)
	if err != nil {
		a.fail(err)
		return 0
	}
	mb = float64(buf.Len()) / (1 << 20)
	s = a.tr.begin("svc.restore")
	restored, err := svc.Restore(&buf, env.DB)
	a.tr.end(s)
	if err != nil {
		a.fail(err)
		return mb
	}
	if got, want := restored.Stats(), a.core.Stats(); got != want {
		a.fail(fmt.Errorf("restored core stats %+v differ from the live core's %+v", got, want))
	}
	restored.Close()
	return mb
}
