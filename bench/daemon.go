package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spreadnshare/internal/experiments"
	"spreadnshare/internal/svc"
	"spreadnshare/internal/svc/api"
	"spreadnshare/internal/trace"
)

// daemonShape sizes one daemon workload. Every pass builds a fresh
// in-process api.Server behind a real loopback listener, warms it up
// (untimed) until the cluster holds its steady population of running
// jobs, then times a fixed number of operations from `clients`
// goroutines over as many connections. Both workloads are closed loops:
// each client sends its next request when its previous one has
// resolved, which is how a caller of Submit+WaitOp behaves. (An open
// loop at 40% load was tried and dropped: an idle vCPU of the sandbox
// takes 0.6 ms at the median and 5 ms at p99 to wake from a 2.5 ms
// sleep, so the generator ran 14-42 ms late at p99 and the latencies
// measured the sandbox's timers; machine.sleep_late_p99_ms records
// that figure with every traced run.)
type daemonShape struct {
	why string
	// nodes is the served cluster's size, maxNodes the widest job.
	nodes, maxNodes int
	// timescale is virtual seconds per wall second: 14400 makes the
	// median 20-minute job finish in 83 ms, so jobs
	// complete during the pass and the running population is steady.
	timescale float64
	clients   int
	// inputs is the number of operation streams a run generates from
	// its seed.
	inputs int
	// warm is the number of jobs submitted before timing starts.
	warm int
	// ops is the number of timed operations per pass.
	ops int
	// mixed draws each operation from the read/write mix instead of
	// making every one a submission.
	mixed bool
}

var daemonShapes = map[string]daemonShape{
	"daemon_submit": {
		why:       "closed loop, 2 clients each Submit+WaitOp, 1,500 jobs per input, against an in-process daemon (8,192 nodes, SNS): HTTP, JSON, op table and command channel dominate, the kernel is light",
		nodes:     8192,
		maxNodes:  64,
		timescale: 14400,
		clients:   2,
		inputs:    4,
		warm:      400,
		ops:       1500,
	},
	"daemon_mixed": {
		why:       "closed loop, 2 clients, 2,000 ops per input: 50% submit+wait, 10% cancel+wait, 30% GET job, 10% cluster stats; reads share the scheduler goroutine with writes, so a write that starves reads shows",
		nodes:     8192,
		maxNodes:  64,
		timescale: 14400,
		clients:   2,
		inputs:    4,
		warm:      400,
		ops:       2000,
		mixed:     true,
	},
}

// sloMS is the latency limit: an operation slower than this, refused,
// or failed misses it.
const sloMS = 50

// opKind is one operation of the mixed workload.
type opKind uint8

const (
	opSubmit opKind = iota
	opCancel
	opGetJob
	opStats
)

// daemon is one running in-process server with its client.
type daemon struct {
	core    *svc.Cluster
	srv     *api.Server
	httpSrv *http.Server
	// serving joins the goroutine running httpSrv.Serve, which leaves
	// its result in serveErr.
	serving   sync.WaitGroup
	serveErr  error
	transport *http.Transport
	client    *api.Client
	// opPolls counts the client's GETs of an op's status: what WaitOp
	// sends, counted on the wire, so the wait loop itself stays
	// api.Client's own.
	opPolls atomic.Int64
}

// RoundTrip counts op-status polls and hands every request on.
func (d *daemon) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/ops/") {
		d.opPolls.Add(1)
	}
	return d.transport.RoundTrip(r)
}

// startDaemon builds the core and the server the way cmd/snsd does and
// serves it on a loopback port. The client keeps at most `conns`
// connections, the workload's stated client count. Like api.Load, it
// touches the core only before srv.Start brings the scheduler goroutine
// up.
//
//sns:ownerinit
func startDaemon(env *experiments.Env, sh daemonShape) (*daemon, error) {
	core, err := svc.New(svc.Config{
		Node:           env.Spec.Node,
		Nodes:          sh.nodes,
		Policy:         trace.SNS,
		MaxScale:       8,
		ScanDepth:      32,
		AgingPeriodSec: 1,
	})
	if err != nil {
		return nil, err
	}
	srv, err := api.New(api.Config{
		Core:      core,
		Model:     svc.PolicyRuntime(trace.SNS, env.Spec.Node),
		DB:        env.DB,
		Timescale: sh.timescale,
	})
	if err != nil {
		core.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		core.Close()
		return nil, err
	}
	srv.Start()
	d := &daemon{
		core:    core,
		srv:     srv,
		httpSrv: &http.Server{Handler: srv},
		transport: &http.Transport{
			MaxIdleConnsPerHost: sh.clients,
			MaxConnsPerHost:     sh.clients,
		},
	}
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		d.serveErr = d.httpSrv.Serve(ln)
	}()
	d.client = api.NewClient("http://" + ln.Addr().String())
	d.client.HTTP = &http.Client{Transport: d, Timeout: 30 * time.Second}
	return d, nil
}

// stop closes the listener, waits for the serving goroutine, and shuts
// the scheduler goroutine down (which drains every accepted op and
// closes the core).
func (d *daemon) stop() error {
	d.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.httpSrv.Shutdown(ctx)
	d.serving.Wait()
	if !errors.Is(d.serveErr, http.ErrServerClosed) && err == nil {
		err = d.serveErr
	}
	if stopErr := d.srv.Shutdown(); err == nil {
		err = stopErr
	}
	return err
}

// daemonInput is one pass's generated input.
type daemonInput struct {
	env *experiments.Env
	// specs holds the warm-up jobs first, then the timed stream's
	// submissions in order.
	specs []svc.JobSpec
	// kinds is the timed operation sequence.
	kinds []opKind
	// pick is a per-operation random draw, used to choose read targets.
	pick []int
}

// daemonSetup builds the environment and the pass's job stream and
// operation sequence from the seed.
func daemonSetup(sh daemonShape, seed int64, scale int, tr *tracer) (*daemonInput, error) {
	in := &daemonInput{}
	var err error
	s := tr.begin("experiments.env_build")
	in.env, err = experiments.NewEnv()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	warm, ops := max(4, sh.warm/scale), max(8, sh.ops/scale)
	s = tr.begin("trace.synthesize")
	defer tr.end(s)
	rng := rand.New(rand.NewSource(seed))
	in.kinds = make([]opKind, ops)
	in.pick = make([]int, ops)
	submits := warm
	for i := range in.kinds {
		in.pick[i] = rng.Int()
		if !sh.mixed {
			submits++
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.5:
			in.kinds[i] = opSubmit
			submits++
		case r < 0.6:
			in.kinds[i] = opCancel
		case r < 0.9:
			in.kinds[i] = opGetJob
		default:
			in.kinds[i] = opStats
		}
	}
	jobs := trace.Synthesize(seed, trace.GenConfig{Jobs: submits, SpanHours: 24, MaxNodes: sh.maxNodes})
	trace.MapPrograms(seed, jobs, experiments.TraceScalingPrograms, experiments.TraceOtherPrograms, 0.9)
	// Synthesize returns jobs sorted by submit time, which correlates
	// nothing else; the daemon stamps its own arrival times.
	in.specs = make([]svc.JobSpec, len(jobs))
	for i, j := range jobs {
		in.specs[i] = svc.JobSpec{
			Name:         fmt.Sprintf("job-%d", i),
			Program:      j.Program,
			BaseNodes:    j.Nodes,
			CoresPerNode: 16,
			RuntimeSec:   j.RuntimeSec,
			Alpha:        0.9,
			MultiNode:    true,
		}
	}
	return in, nil
}

// opSample is one timed operation as its client saw it.
type opSample struct {
	kind opKind
	// latencyMS runs from the operation's send to its resolution.
	latencyMS float64
	failed    bool
	// refused marks an HTTP 429.
	refused bool
}

// loadPass is one pass's accounting.
type loadPass struct {
	samples []opSample
	// wallS and cpuS time the timed operations (warm-up excluded);
	// peakRSSMB is the resident-set high-water mark over them, allocMB
	// the heap bytes they allocated (client side included).
	wallS, cpuS, peakRSSMB, allocMB float64
	// submitted and cancelled count operations the daemon applied,
	// warm-up included.
	submitted, cancelled int
	// opPolls counts op-status polls during the timed operations.
	opPolls int64
}

// warmUp submits the stream's first `warm` jobs from every client,
// closed loop, and then one 24-hour job per cancel of the pass, so a
// cancel never races a completion. It returns the warm-up jobs' ids
// (the reads' targets) and the cancel targets' ids.
func warmUp(d *daemon, sh daemonShape, in *daemonInput, warm int) (ids, targets []int, err error) {
	ids = make([]int, warm)
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[error]
	for range sh.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= warm {
					return
				}
				id, err := d.client.SubmitWait(in.specs[i])
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				ids[i] = id
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return nil, nil, *err
	}
	for _, k := range in.kinds {
		if k != opCancel {
			continue
		}
		id, err := d.client.SubmitWait(svc.JobSpec{
			Name:         fmt.Sprintf("target-%d", len(targets)),
			Program:      "EP",
			BaseNodes:    1,
			CoresPerNode: 16,
			RuntimeSec:   24 * 3600,
			Alpha:        0.9,
			MultiNode:    true,
		})
		if err != nil {
			return nil, nil, err
		}
		targets = append(targets, id)
	}
	return ids, targets, nil
}

// doOp performs one timed operation through api.Client, the way any
// caller of the daemon does, and records its phases as spans when tr is
// set (a nil tracer records nothing). arg is the operation's slot: an
// index into in.specs for a submission or a read, a job id for a cancel.
func doOp(d *daemon, tr *tracer, in *daemonInput, ids []int, kind opKind, arg int) error {
	t0 := tr.now()
	switch kind {
	case opSubmit:
		op, err := d.client.Submit(in.specs[arg])
		t1 := tr.now()
		tr.leaf("api.post", t0, t1)
		if err != nil {
			return err
		}
		_, err = d.client.WaitOp(op.ID)
		tr.leaf("api.wait", t1, tr.now())
		return err
	case opCancel:
		op, err := d.client.Cancel(arg)
		if err == nil {
			_, err = d.client.WaitOp(op.ID)
		}
		tr.leaf("api.cancel", t0, tr.now())
		return err
	case opGetJob:
		var err error
		if arg%2 == 0 {
			_, err = d.client.Job(ids[arg])
		} else {
			_, err = d.client.JobByName(in.specs[arg].Name)
		}
		tr.leaf("api.get_job", t0, tr.now())
		return err
	case opStats:
		_, err := d.client.Stats()
		tr.leaf("api.stats", t0, tr.now())
		return err
	}
	return fmt.Errorf("unknown operation kind %d", kind)
}

// runLoad warms the daemon up and then times the pass's operations from
// sh.clients goroutines; trs, when set, holds one tracer per client.
func runLoad(d *daemon, sh daemonShape, in *daemonInput, trs []*tracer) (*loadPass, error) {
	lp := &loadPass{samples: make([]opSample, len(in.kinds))}
	warm := len(in.specs)
	for _, k := range in.kinds {
		if k == opSubmit {
			warm--
		}
	}
	ids, targets, err := warmUp(d, sh, in, warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	lp.submitted = warm + len(targets)

	// Each operation's slot in specs/targets is fixed before the clients
	// start, so which client runs it changes nothing.
	slot := make([]int, len(in.kinds))
	nextSpec, nextTarget := warm, 0
	for i, k := range in.kinds {
		switch k {
		case opSubmit:
			slot[i] = nextSpec
			nextSpec++
		case opCancel:
			slot[i] = targets[nextTarget]
			nextTarget++
		case opGetJob:
			slot[i] = in.pick[i] % warm
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	resetPeakRSS()
	alloc0 := allocatedMB()
	start := time.Now()
	cpu0 := cpuSeconds()
	polls0 := d.opPolls.Load()
	for w := range sh.clients {
		var tr *tracer
		if trs != nil {
			tr = trs[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.kinds) {
					return
				}
				s := &lp.samples[i]
				s.kind = in.kinds[i]
				from := time.Now()
				err := doOp(d, tr, in, ids, s.kind, slot[i])
				s.latencyMS = float64(time.Since(from)) / 1e6
				if err != nil {
					s.failed = true
					var se *api.StatusError
					s.refused = errors.As(err, &se) && se.Code == http.StatusTooManyRequests
				}
			}
		}()
	}
	wg.Wait()
	lp.cpuS = cpuSeconds() - cpu0
	lp.wallS = time.Since(start).Seconds()
	lp.peakRSSMB = peakRSSMB()
	lp.allocMB = allocatedMB() - alloc0
	lp.opPolls = d.opPolls.Load() - polls0
	for _, s := range lp.samples {
		if s.failed {
			continue
		}
		switch s.kind {
		case opSubmit:
			lp.submitted++
		case opCancel:
			lp.cancelled++
		}
	}
	return lp, nil
}

// daemonPass runs set-up, one load pass and the output checks, and
// stops the daemon. trs is nil for an untraced pass.
func daemonPass(c *runCtx, sh daemonShape, input int, tr *tracer, trs []*tracer) (repResult, *loadPass, *daemonInput, error) {
	var rr repResult
	cpu0 := cpuSeconds()
	in, err := daemonSetup(sh, c.subSeed(input), c.scale, tr)
	if err != nil {
		return rr, nil, nil, err
	}
	d, err := startDaemon(in.env, sh)
	if err != nil {
		return rr, nil, nil, err
	}
	rr.SetupCPU = cpuSeconds() - cpu0
	lp, err := runLoad(d, sh, in, trs)
	if err != nil {
		// The load error is the one worth reporting.
		_ = d.stop()
		return rr, nil, nil, err
	}
	stats, statsErr := d.client.Stats()
	if err := d.stop(); err != nil {
		return rr, nil, nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	rr.PassCPU, rr.PassWall, rr.PeakRSSMB, rr.AllocMB = lp.cpuS, lp.wallS, lp.peakRSSMB, lp.allocMB
	rr.Attempted = len(lp.samples)
	for _, s := range lp.samples {
		rr.OpsMS = append(rr.OpsMS, s.latencyMS)
		if s.failed {
			rr.Failed++
		}
	}

	// The daemon's own counts must reconcile with what the clients were
	// told, and every job of the stream must have been placed.
	switch {
	case statsErr != nil:
		c.fail("input %d: cluster stats: %v", input, statsErr)
	case stats.Submitted != stats.Queued+stats.Running+stats.Done+stats.Cancelled:
		c.fail("input %d: stats do not add up: %+v", input, stats)
	case stats.Submitted != lp.submitted || stats.Cancelled != lp.cancelled:
		c.fail("input %d: daemon counts %d submitted / %d cancelled, clients were told %d / %d",
			input, stats.Submitted, stats.Cancelled, lp.submitted, lp.cancelled)
	case stats.Queued != 0:
		c.fail("input %d: %d jobs still queued at the end of the pass", input, stats.Queued)
	}
	// Shutdown has joined the scheduler goroutine, so the core is ours
	// to read. A running job's FinishSec is its predicted completion,
	// which is when the daemon will complete it.
	var turns []float64
	//lint:confine read after d.stop: Server.Shutdown has joined the scheduler goroutine, the core's only other user
	d.core.Each(func(j *svc.Job) {
		if j.Spec.RuntimeSec >= 24*3600 || (j.State != svc.Running && j.State != svc.Done) {
			return
		}
		if !(j.SubmitSec <= j.StartSec && j.StartSec < j.FinishSec) || len(j.Nodes) == 0 {
			rr.Failed++
			c.fail("input %d: job %d has submit %g start %g finish %g on %d nodes", input, j.ID, j.SubmitSec, j.StartSec, j.FinishSec, len(j.Nodes))
			return
		}
		turns = append(turns, j.FinishSec-j.SubmitSec)
	})
	rr.AvgTurn = mean(turns)
	return rr, lp, in, nil
}

func daemonWorkload(name string) workload {
	sh := daemonShapes[name]
	return workload{
		name:   name,
		why:    sh.why,
		inputs: sh.inputs,
		rep: func(c *runCtx, input int) (repResult, error) {
			rr, _, _, err := daemonPass(c, sh, input, nil, nil)
			return rr, err
		},
		traced: func(c *runCtx, rep int) (layerRep, repResult, error) {
			return daemonTraced(c, sh, rep)
		},
	}
}

// daemonTraced is one traced repetition: the load pass with per-client
// tracers and the CPU profile on, then (submit-only stream) the same
// jobs replayed through Level A at the daemon's measured admission
// rate, which prices everything the daemon adds around the core.
func daemonTraced(c *runCtx, sh daemonShape, rep int) (layerRep, repResult, error) {
	tr := newTracer(c.epoch, rep)
	trs := make([]*tracer, sh.clients)
	for i := range trs {
		trs[i] = newTracer(c.epoch, rep)
	}
	c.prof.start()
	rr, lp, in, err := daemonPass(c, sh, rep, tr, trs)
	c.prof.stop()
	if err != nil {
		return nil, rr, err
	}
	if c.prof.err != nil {
		return nil, rr, c.prof.err
	}
	lists := [][]span{tr.spans}
	for _, t := range trs {
		lists = append(lists, t.spans)
	}
	spans := mergeSpans(lists...)

	var waited, refused, missed int
	submits := 0
	for _, s := range lp.samples {
		if s.kind == opSubmit || s.kind == opCancel {
			waited++
		}
		if s.kind == opSubmit && !s.failed {
			submits++
		}
		if s.refused {
			refused++
		}
		if s.failed || s.latencyMS > sloMS {
			missed++
		}
	}
	t := totals(spans)
	pct := func(name string, p float64) float64 { return percentile(durations(spans, name), p) / 1e6 }
	lr := layerRep{
		"experiments.env_build_ms": ms(t.Self["experiments.env_build"]),
		"trace.synthesize_ms":      ms(t.Self["trace.synthesize"]),
		"api.admit_jobs_per_s":     float64(submits) / lp.wallS,
		"api.op_ms_p50":            percentile(rr.OpsMS, 0.50),
		"api.op_ms_p99":            percentile(rr.OpsMS, 0.99),
		"bench.pass_wall_s":        lp.wallS,
		"api.post_ms_p50":          pct("api.post", 0.50),
		"api.post_ms_p99":          pct("api.post", 0.99),
		"api.wait_ms_p50":          pct("api.wait", 0.50),
		"api.wait_ms_p99":          pct("api.wait", 0.99),
		"api.get_job_ms_p50":       pct("api.get_job", 0.50),
		"api.get_job_ms_p99":       pct("api.get_job", 0.99),
		"api.stats_ms_p50":         pct("api.stats", 0.50),
		"api.cancel_ms_p50":        pct("api.cancel", 0.50),
		"api.cancel_ms_p99":        pct("api.cancel", 0.99),
		"api.http_429":             float64(refused),
		"loadgen.slo_miss_frac":    float64(missed) / float64(len(lp.samples)),
	}
	if waited > 0 {
		lr["api.polls_per_op"] = float64(lp.opPolls) / float64(waited)
	}

	if !sh.mixed {
		trCore := newTracer(c.epoch, rep)
		perJob, err := coreReplay(trCore, sh, in, float64(len(lp.samples))/lp.wallS)
		if err != nil {
			return nil, rr, err
		}
		lr["api.overhead_x"] = lp.wallS / float64(len(lp.samples)) / perJob
		for k, v := range levelALayers(trCore.spans) {
			lr[k] = v
		}
		c.spans = append(c.spans, trCore.spans)
	}
	c.spans = append(c.spans, spans)
	return lr, rr, nil
}

// coreReplay feeds the pass's whole job stream to a bare svc.Cluster of
// the daemon's configuration through the Level A loop, arrivals spaced
// at the daemon's measured admission rate on the virtual clock, and
// returns the wall seconds it took per job. The core is built, driven
// and closed on the calling goroutine.
//
//sns:goroutine core
func coreReplay(tr *tracer, sh daemonShape, in *daemonInput, jobsPerS float64) (float64, error) {
	cfg := trace.DefaultSimConfig(sh.nodes, trace.SNS)
	jobs := make([]trace.Job, len(in.specs))
	specs := make([]svc.JobSpec, len(in.specs))
	for i, spec := range in.specs {
		jobs[i] = trace.Job{ID: i, SubmitSec: float64(i) * sh.timescale / jobsPerS, Nodes: spec.BaseNodes, RuntimeSec: spec.RuntimeSec, Program: spec.Program}
		p, ok := in.env.DB.Get(spec.Program, spec.CoresPerNode)
		if !ok {
			return 0, fmt.Errorf("program %q unprofiled", spec.Program)
		}
		spec.Name, spec.Profile = "", p
		specs[i] = spec
	}
	a, err := newLevelA(tr, in.env, cfg)
	if err != nil {
		return 0, err
	}
	defer a.core.Close()
	runtime.GC()
	t0 := time.Now()
	if _, err := driveReplay(tr, a, "", jobs, specs, nil); err != nil {
		return 0, fmt.Errorf("core replay: %w", err)
	}
	return time.Since(t0).Seconds() / float64(len(jobs)), nil
}
