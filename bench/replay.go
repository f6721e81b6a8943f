package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"spreadnshare/internal/experiments"
	"spreadnshare/internal/trace"
)

// replayShape sizes one trace-replay workload. A pass is one
// trace.Simulate per policy over one of the run's traces; sizes are
// chosen so a pass costs 0.4-0.7 CPU seconds and a 15-second run makes
// two rounds over its inputs.
type replayShape struct {
	why string
	// inputs is the number of traces a run generates from its seed.
	inputs int
	gen    trace.GenConfig
	// ratio is the share of jobs mapped to scaling-class programs.
	ratio    float64
	nodes    int
	policies []trace.Policy
	// swf routes the trace through SWF text and trace.ParseSWF.
	swf bool
	// variants measures the opt-in kernel widths in the traced run.
	variants bool
	// snapshot takes a svc snapshot and restores it at the midpoint of
	// the first traced replay. (Not on fig20_base: an exclusive job
	// records a reservation per node, and the 32K-node CE snapshot is
	// 310 MB of JSON that takes a minute each way.)
	snapshot bool
}

var replayShapes = map[string]replayShape{
	// The paper's Figure 20 column at its arrival density: a tenth of
	// the 7,044-job, 1,900-hour Trinity-like trace per input, jobs of up
	// to 4,096 nodes on 32,768 nodes, ratio 0.9, SNS. No queue forms, so
	// successful wide placements (cache flush and fold of thousands of
	// dirty nodes) and span mutation do all the work.
	"fig20_sns": {
		why:      "paper Fig 20 SNS column, 704 jobs of <=4,096 nodes over 190 h on 32,768 nodes per input: never queued, so successful wide Place calls and span mutation do the work",
		inputs:   10,
		gen:      trace.GenConfig{Jobs: 704, SpanHours: 190, MaxNodes: 4096},
		ratio:    0.9,
		nodes:    32768,
		policies: []trace.Policy{trace.SNS},
		variants: true,
		snapshot: true,
	},
	// Half of the Figure 20 trace per input under the three baselines,
	// back to back: the same placement layer used differently (exclusive
	// per-node Reserve/Release, idle-group search, no demand walk).
	"fig20_base": {
		why:      "the Fig 20 trace (3,522 jobs over 950 h per input) under CE, CS and TwoSlot: per-node exclusive Reserve/Release and idle search, no demand walk, so an SNS-only gain that costs the baselines shows",
		inputs:   10,
		gen:      trace.GenConfig{Jobs: 3522, SpanHours: 950, MaxNodes: 4096},
		ratio:    0.9,
		nodes:    32768,
		policies: []trace.Policy{trace.CE, trace.CS, trace.TwoSlot},
	},
	// IN2P3-shaped: many small jobs arriving faster than the cluster
	// drains, so a queue stands for the whole replay and every event
	// burns up to ScanDepth failed Place walks. Spans are narrow, so
	// the striped mutation pipeline and the flush are bypassed.
	"htc_queued": {
		why:      "IN2P3-shaped: 600 jobs of <=8 nodes in 6 minutes on 1,024 nodes per input, through SWF: a standing queue, so failed Place walks do the work and wide-span paths are bypassed",
		inputs:   8,
		gen:      trace.GenConfig{Jobs: 600, SpanHours: 0.1, MaxNodes: 8},
		ratio:    0.9,
		nodes:    1024,
		policies: []trace.Policy{trace.SNS},
		swf:      true,
		snapshot: true,
	},
}

// replayInput is one repetition's generated input.
type replayInput struct {
	env  *experiments.Env
	jobs []trace.Job
}

// replaySetup builds the environment and the repetition's trace. tr may
// be nil (untraced runs).
func replaySetup(sh replayShape, seed int64, scale int, tr *tracer) (*replayInput, error) {
	in := &replayInput{}
	var err error
	s := tr.begin("experiments.env_build")
	in.env, err = experiments.NewEnv()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	gen := sh.gen
	gen.Jobs = max(8, gen.Jobs/scale)
	gen.SpanHours /= float64(scale)
	s = tr.begin("trace.synthesize")
	in.jobs = trace.Synthesize(seed, gen)
	var swf bytes.Buffer
	if sh.swf {
		writeSWF(&swf, in.jobs, 16)
	}
	tr.end(s)
	if sh.swf {
		s = tr.begin("trace.swf_parse")
		in.jobs, err = trace.ParseSWF(&swf, 16)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if len(in.jobs) != gen.Jobs {
			return nil, fmt.Errorf("SWF round trip kept %d of %d jobs", len(in.jobs), gen.Jobs)
		}
	}
	trace.MapPrograms(seed, in.jobs, experiments.TraceScalingPrograms, experiments.TraceOtherPrograms, sh.ratio)
	return in, nil
}

// writeSWF renders jobs in the Standard Workload Format: 18 fields per
// line, of which the simulator reads job number, submit time, run time
// and allocated processors; the rest are the archive's "unknown" (-1).
func writeSWF(w *bytes.Buffer, jobs []trace.Job, procsPerNode int) {
	w.WriteString("; synthesized by bench, SWF version 2.2\n")
	for _, j := range jobs {
		fmt.Fprintf(w, "%d %.3f -1 %.3f %d -1 -1 -1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
			j.ID+1, j.SubmitSec, j.RuntimeSec, j.Nodes*procsPerNode)
	}
}

// outcomes reduces a trace.Result to the records the checks read.
func outcomes(r *trace.Result, coresPerNode int) []jobOut {
	out := make([]jobOut, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = jobOut{
			Submit: j.Trace.SubmitSec,
			Start:  j.Start,
			Finish: j.Finish,
			Scale:  j.Scale,
			Nodes:  j.Nodes,
			Procs:  j.Trace.Nodes * coresPerNode,
		}
	}
	return out
}

func replayWorkload(name string) workload {
	sh := replayShapes[name]
	w := workload{name: name, why: sh.why, inputs: sh.inputs}
	w.rep = func(c *runCtx, input int) (repResult, error) {
		var rr repResult
		cpu0 := cpuSeconds()
		in, err := replaySetup(sh, c.subSeed(input), c.scale, nil)
		if err != nil {
			return rr, err
		}
		rr.SetupCPU = cpuSeconds() - cpu0
		results := make([]*trace.Result, len(sh.policies))
		runtime.GC()
		resetPeakRSS()
		alloc0 := allocatedMB()
		t0 := time.Now()
		cpu0 = cpuSeconds()
		for i, p := range sh.policies {
			cfg := trace.DefaultSimConfig(sh.nodes, p)
			results[i], err = trace.Simulate(in.jobs, in.env.DB, in.env.Spec.Node, cfg)
			if err != nil {
				return rr, fmt.Errorf("%s: %w", p, err)
			}
		}
		rr.PassCPU = cpuSeconds() - cpu0
		rr.PassWall = time.Since(t0).Seconds()
		rr.PeakRSSMB = peakRSSMB()
		rr.AllocMB = allocatedMB() - alloc0
		turns := make([]float64, len(results))
		for i, r := range results {
			turns[i] = r.AvgTurn
			failed, problems := checkOutcome(outcomes(r, 16), sh.nodes, in.env.Spec.Node.Cores.Int(), sh.policies[i])
			rr.Attempted += len(r.Jobs)
			rr.Failed += failed
			for _, p := range problems {
				c.fail("input %d %s: %s", input, sh.policies[i], p)
			}
		}
		rr.AvgTurn = mean(turns)
		return rr, nil
	}
	w.traced = func(c *runCtx, rep int) (layerRep, repResult, error) {
		return replayTraced(c, sh, rep)
	}
	if sh.variants {
		w.once = func(c *runCtx) error { return replayVariants(c, sh) }
	}
	return w
}

// replayTraced is one traced repetition: set-up with spans, then for
// each policy an untraced trace.Simulate (the reference digest and the
// overhead baseline), the Level A replay (CPU-profiled) and the Level B
// replay, whose digests must equal the reference. Every core it builds
// is driven and closed here, on the calling goroutine.
//
//sns:goroutine core
func replayTraced(c *runCtx, sh replayShape, rep int) (layerRep, repResult, error) {
	var rr repResult
	tr := newTracer(c.epoch, rep)
	in, err := replaySetup(sh, c.subSeed(rep), c.scale, tr)
	if err != nil {
		return nil, rr, err
	}
	var refS, levelAS, levelBS float64
	var kernels []*kernel
	for _, p := range sh.policies {
		cfg := trace.DefaultSimConfig(sh.nodes, p)
		runtime.GC()
		t0 := time.Now()
		ref, err := trace.Simulate(in.jobs, in.env.DB, in.env.Spec.Node, cfg)
		if err != nil {
			return nil, rr, fmt.Errorf("%s: %w", p, err)
		}
		refS += time.Since(t0).Seconds()
		want := digest(outcomes(ref, cfg.CoresPerJobNode))
		rr.Attempted += len(in.jobs)

		specs, err := buildSpecs(in.jobs, in.env, cfg)
		if err != nil {
			return nil, rr, err
		}
		a, err := newLevelA(tr, in.env, cfg)
		if err != nil {
			return nil, rr, err
		}
		var mid func()
		if rep == 0 && sh.snapshot {
			// The snapshot is JSON work the replay does not do; keep it
			// out of the replay's CPU profile.
			mid = func() {
				outer := tr.begin("bench.snapshot")
				c.prof.stop()
				c.extra["svc.snapshot_mb"] = a.snapshotRestore(in.env)
				c.prof.start()
				tr.end(outer)
			}
		}
		runtime.GC()
		c.prof.start()
		t0 = time.Now()
		outA, err := driveReplay(tr, a, "", in.jobs, specs, mid)
		levelAS += time.Since(t0).Seconds()
		c.prof.stop()
		a.core.Close()
		if err != nil {
			return nil, rr, fmt.Errorf("level A %s: %w", p, err)
		}
		if got := digest(outA); got != want {
			rr.Failed += len(in.jobs)
			c.fail("rep %d %s: Level A digest %016x differs from trace.Simulate's %016x", rep, p, got, want)
		}

		runtime.GC()
		t0 = time.Now()
		k := newKernel(tr, in.env.Spec.Node, cfg)
		outB, err := driveReplay(tr, k, "@B", in.jobs, specs, nil)
		levelBS += time.Since(t0).Seconds()
		if err != nil {
			return nil, rr, fmt.Errorf("level B %s: %w", p, err)
		}
		if got := digest(outB); got != want {
			rr.Failed += len(in.jobs)
			c.fail("rep %d %s: Level B digest %016x differs from trace.Simulate's %016x", rep, p, got, want)
		}
		kernels = append(kernels, k)
	}
	if c.prof.err != nil {
		return nil, rr, c.prof.err
	}
	fmt.Fprintf(c.out, "rep %-3d     trace.Simulate %.3f s  level A %.3f s  level B %.3f s  spans %d\n", rep, refS, levelAS, levelBS, len(tr.spans))
	lr := replayLayers(tr, kernels)
	if rep == 0 && sh.snapshot {
		c.extra["svc.snapshot_ms"], c.extra["svc.restore_ms"] = lr["svc.snapshot_ms"], lr["svc.restore_ms"]
	}
	snapS := 0.0
	for _, ns := range durations(tr.spans, "bench.snapshot") {
		snapS += ns / 1e9
	}
	lr["bench.pass_wall_s"] = refS
	lr["bench.trace_overhead_pct"] = 100 * ((levelAS-snapS)/refS - 1)
	c.spans = append(c.spans, tr.spans)
	return lr, rr, nil
}

// levelALayers is the Level A account of a span list: the svc, event
// queue and loop rows.
func levelALayers(spans []span) layerRep {
	t := totals(spans)
	lr := layerRep{
		"svc.submit_ms":      ms(t.Self["svc.submit"]),
		"svc.submit_calls":   float64(t.Calls["svc.submit"]),
		"svc.round_ms":       ms(t.Self["svc.round"]),
		"svc.round_calls":    float64(t.Calls["svc.round"]),
		"svc.round_p99_us":   percentile(durations(spans, "svc.round"), 0.99) / 1e3,
		"svc.complete_ms":    ms(t.Self["svc.complete"]),
		"svc.complete_calls": float64(t.Calls["svc.complete"]),
		"sim.queue_self_ms":  ms(t.Self["sim.queue"]),
		"sim.events":         float64(t.Calls["trace.event"]),
		"trace.loop_self_ms": ms(t.Self["trace.loop"] + t.Self["trace.event"]),
	}
	// Every placed job completes, so completions count placements.
	if rounds := t.Calls["svc.round"]; rounds > 0 {
		lr["svc.placed_per_round"] = float64(t.Calls["svc.complete"]) / float64(rounds)
	}
	return lr
}

// replayLayers turns one traced repetition's spans into its per-layer
// metrics: set-up, the Level A rows, and the placement rows from
// Level B.
func replayLayers(tr *tracer, kernels []*kernel) layerRep {
	t := totals(tr.spans)
	lr := levelALayers(tr.spans)
	lr["experiments.env_build_ms"] = ms(t.Self["experiments.env_build"])
	lr["trace.synthesize_ms"] = ms(t.Self["trace.synthesize"])
	lr["trace.swf_parse_ms"] = ms(t.Self["trace.swf_parse"])
	lr["svc.snapshot_ms"] = ms(t.Self["svc.snapshot"])
	lr["svc.restore_ms"] = ms(t.Self["svc.restore"])

	reserve, release := t.Self["placement.reserve"], t.Self["placement.release"]
	var reserveNodes, releaseNodes int64
	queueMax := 0
	for _, k := range kernels {
		reserveNodes += k.reserveNodes
		releaseNodes += k.releaseNodes
		queueMax = max(queueMax, k.queueLenMax)
	}
	lr["placement.queue_self_ms"] = ms(t.Self["placement.schedule"])
	lr["placement.queue_len_max"] = float64(queueMax)
	lr["placement.place_ok_ms"] = ms(t.Self["placement.place_ok"])
	lr["placement.place_ok_calls"] = float64(t.Calls["placement.place_ok"])
	lr["placement.place_fail_ms"] = ms(t.Self["placement.place_fail"])
	lr["placement.place_fail_calls"] = float64(t.Calls["placement.place_fail"])
	if n := t.Calls["placement.place_ok"] + t.Calls["placement.place_fail"]; n > 0 {
		lr["placement.place_ok_ratio"] = float64(t.Calls["placement.place_ok"]) / float64(n)
	}
	lr["placement.reserve_ms"] = ms(reserve)
	lr["placement.reserve_nodes"] = float64(reserveNodes)
	lr["placement.release_ms"] = ms(release)
	lr["placement.release_nodes"] = float64(releaseNodes)
	lr["placement.invalidate_ms"] = ms(t.Self["placement.invalidate"])
	if n := reserveNodes + releaseNodes; n > 0 {
		lr["placement.ns_per_node_mut"] = float64(reserve+release) / float64(n)
	}
	lr["placement.state_new_ms"] = ms(t.Self["placement.state_new"])
	return lr
}

// setIfPresent sets the named integer field of a config struct when the
// struct still has it, and reports whether it did. The kernel-width
// knobs are slated for removal; going through here turns their removal
// into an absent variant row instead of a compile error in a change
// that may not edit the benchmark.
func setIfPresent(cfg any, field string, value int) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName(field)
	if !f.IsValid() || !f.CanSet() || f.Kind() != reflect.Int {
		return false
	}
	f.SetInt(int64(value))
	return true
}

// replayVariants prices the opt-in kernel widths on this workload: the
// flat default, 64 shards, the striped mutation pipeline at width
// nproc, and both, on one trace, each asserted digest-equal to flat. No
// default turns them on, so they move no end-to-end metric. A variant
// whose knob no longer exists reports 0 and prints "absent".
func replayVariants(c *runCtx, sh replayShape) error {
	in, err := replaySetup(sh, c.subSeed(0), c.scale, nil)
	if err != nil {
		return err
	}
	variants := []struct {
		metric string
		knobs  map[string]int
	}{
		{"variant.flat_s", nil},
		{"variant.shards64_s", map[string]int{"Shards": 64}},
		{"variant.mutworkers_s", map[string]int{"MutWorkers": runtime.NumCPU()}},
		{"variant.shards64_mutworkers_s", map[string]int{"Shards": 64, "MutWorkers": runtime.NumCPU()}},
	}
	// One untimed replay first, so the heap has grown and the first
	// variant does not pay for it.
	if _, err := trace.Simulate(in.jobs, in.env.DB, in.env.Spec.Node, trace.DefaultSimConfig(sh.nodes, sh.policies[0])); err != nil {
		return err
	}
	var flat uint64
	for i, v := range variants {
		cfg := trace.DefaultSimConfig(sh.nodes, sh.policies[0])
		present := true
		for field, value := range v.knobs {
			present = setIfPresent(&cfg, field, value) && present
		}
		if !present {
			fmt.Fprintf(c.out, "%-40s absent\n", v.metric)
			c.extra[v.metric] = 0
			continue
		}
		runtime.GC()
		t0 := time.Now()
		r, err := trace.Simulate(in.jobs, in.env.DB, in.env.Spec.Node, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", v.metric, err)
		}
		c.extra[v.metric] = time.Since(t0).Seconds()
		d := digest(outcomes(r, cfg.CoresPerJobNode))
		if i == 0 {
			flat = d
		} else if d != flat {
			c.fail("%s digest %016x differs from flat %016x", v.metric, d, flat)
		}
	}
	return nil
}
