package main

import (
	"spreadnshare/internal/hw"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/svc"
	"spreadnshare/internal/trace"
)

// This file is Level B: everything the benchmark knows about the
// placement kernel's wiring lives here and nowhere else. kernel is
// svc.Cluster's admission path (Submit, ScheduleRound, launch,
// Complete) rebuilt over placement.Pending / Search / SimState /
// ScoreCache exactly as svc.New wires the default configuration, with a
// span around every call into the placement package. Its replay must
// produce trace.Simulate's digest bit for bit; when svc's wiring
// changes, this file is what has to follow.

type kjob struct {
	spec    svc.JobSpec
	req     placement.Request
	res     []placement.Reservation
	res0    placement.Reservation
	uniform bool
	nodes   []int
}

type kernel struct {
	tr      *tracer
	policy  placement.Policy
	state   *placement.SimState
	pending *placement.Pending
	search  *placement.Search
	model   svc.RuntimeModel
	jobs    []*kjob
	out     []placed

	queueLenMax  int
	reserveNodes int64
	releaseNodes int64
}

// newKernel wires an all-idle kernel for cfg the way svc.New does.
func newKernel(tr *tracer, node hw.NodeSpec, cfg trace.SimConfig) *kernel {
	k := &kernel{
		tr:      tr,
		policy:  cfg.Policy,
		pending: &placement.Pending{AgingPeriodSec: 1, ScanDepth: cfg.ScanDepth},
		model:   svc.PolicyRuntime(cfg.Policy, node),
	}
	s := tr.begin("placement.state_new")
	k.state = placement.NewSimState(node, cfg.ClusterNodes)
	k.search = &placement.Search{
		View:         k.state,
		Idx:          k.state.Index(),
		Spec:         node,
		Nodes:        cfg.ClusterNodes,
		MaxScale:     cfg.MaxScale,
		HasIntensive: k.state.HasIntensive,
	}
	cache := placement.NewScoreCache(cfg.ClusterNodes, node.Cores.Int())
	k.search.Cache = cache
	tr.end(s)
	// The per-node hook fires once per node of every exclusive
	// reservation (10 million times a pass on fig20_base) and costs less
	// than reading the clock twice, so it is wired as svc wires it and
	// its time stays inside the reserve/release spans; the CPU profile's
	// cpu.placement_invalidate_pct prices it. The span hook fires once
	// per uniform reservation and is timed.
	k.state.SetOnChange(cache.Invalidate)
	k.state.SetOnSpanChange(func(ids []int) {
		s := tr.begin("placement.invalidate")
		cache.InvalidateSpan(ids)
		tr.end(s)
	})
	return k
}

func (k *kernel) submit(spec svc.JobSpec, now float64) int {
	j := &kjob{spec: spec}
	j.req = placement.Request{
		BaseNodes:    spec.BaseNodes,
		CoresPerNode: spec.CoresPerNode,
		MemGBPerProc: spec.MemGBPerProc,
		Alpha:        spec.Alpha,
		MultiNode:    spec.MultiNode,
	}
	switch k.policy {
	case placement.SNS:
		j.req.Profile = spec.Profile
	case placement.TwoSlot:
		j.req.Intensive = spec.Intensive
	case placement.CE, placement.CS:
		// Neither reads the profile nor the intensity class.
	}
	id := len(k.jobs)
	k.jobs = append(k.jobs, j)
	k.pending.Push(id, now, spec.Priority, id)
	return id
}

func (k *kernel) round(now float64) []placed {
	k.out = k.out[:0]
	if n := k.pending.Len(); n > k.queueLenMax {
		k.queueLenMax = n
	}
	s := k.tr.begin("placement.schedule")
	k.pending.Schedule(now, func(id int) bool {
		try := k.tr.begin("kernel.try")
		defer k.tr.end(try)
		j := k.jobs[id]
		p := k.tr.begin("placement.place")
		pl := k.search.Place(k.policy, j.req)
		if pl == nil {
			k.tr.endAs(p, "placement.place_fail")
			return false
		}
		k.tr.endAs(p, "placement.place_ok")
		k.launch(id, j, pl, now)
		return true
	})
	k.tr.end(s)
	return k.out
}

// launch reserves a plan the way svc.Cluster.launch does: one span call
// for a uniform non-exclusive plan, per-node Reserve otherwise.
func (k *kernel) launch(id int, j *kjob, pl *placement.Plan, now float64) {
	j.uniform = !pl.Exclusive
	for i := 1; i < len(pl.Cores) && j.uniform; i++ {
		j.uniform = pl.Cores[i] == pl.Cores[0]
	}
	s := k.tr.begin("placement.reserve")
	if j.uniform {
		j.res0 = placement.Reservation{
			Cores:     pl.Cores[0],
			Ways:      pl.Ways,
			BW:        pl.BW,
			IOBW:      pl.IOBW,
			Intensive: j.req.Intensive,
		}
		k.state.ReserveSpan(pl.Nodes, j.res0)
	} else {
		j.res = make([]placement.Reservation, len(pl.Nodes))
		for i, node := range pl.Nodes {
			j.res[i] = k.state.Reserve(node, placement.Reservation{
				Cores:     pl.Cores[i],
				Ways:      pl.Ways,
				BW:        pl.BW,
				IOBW:      pl.IOBW,
				Exclusive: pl.Exclusive,
				Intensive: j.req.Intensive,
			})
		}
	}
	k.tr.end(s)
	k.reserveNodes += int64(len(pl.Nodes))
	j.nodes = pl.Nodes
	model := svc.Job{Spec: j.spec}
	k.out = append(k.out, placed{
		id:     id,
		start:  now,
		finish: now + k.model(&model, pl),
		scale:  pl.K,
		nodes:  pl.Nodes,
	})
}

func (k *kernel) complete(id int, _ float64) {
	j := k.jobs[id]
	s := k.tr.begin("placement.release")
	if j.uniform {
		k.state.ReleaseSpan(j.nodes, j.res0)
	} else {
		for i, node := range j.nodes {
			k.state.Release(node, j.res[i])
		}
	}
	k.tr.end(s)
	k.releaseNodes += int64(len(j.nodes))
}

func (k *kernel) queued() int    { return k.pending.Len() }
func (k *kernel) failure() error { return nil }
