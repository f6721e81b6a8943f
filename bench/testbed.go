package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"spreadnshare/internal/experiments"
	"spreadnshare/internal/sched"
	seqgen "spreadnshare/internal/workload"
)

// testbedSeqs is how many random 20-job sequences one pass evaluates
// under CE, CS and SNS: 8 times the paper's 36 (Figures 14-19), which
// takes 0.4 CPU seconds. experiments.RunSequences derives its sequences
// from fixed seeds, so this workload has one input whatever --seed is;
// only its timing varies.
const (
	testbedSeqs = 8 * experiments.SeqCount
	testbedJobs = experiments.SeqJobs
)

func testbedWorkload() workload {
	return workload{
		name:   "testbed_seq",
		inputs: 1,
		why:    "the paper's 36-sequence testbed study x8: sched+exec+cluster+pmu do all the work and svc/SimState/api none, so kernel changes predict no move here",
		rep:    testbedRep,
		traced: testbedTraced,
	}
}

// testbedPass is one timed RunSequences call plus its summary and
// checks.
func testbedPass(c *runCtx, input int, env *experiments.Env) (rr repResult, gainPct float64, err error) {
	count := max(2, testbedSeqs/c.scale)
	runtime.GC()
	resetPeakRSS()
	alloc0 := allocatedMB()
	t0 := time.Now()
	cpu0 := cpuSeconds()
	outs, err := experiments.RunSequences(env, count, testbedJobs)
	if err != nil {
		return rr, 0, err
	}
	rr.PassCPU = cpuSeconds() - cpu0
	rr.PassWall = time.Since(t0).Seconds()
	rr.PeakRSSMB = peakRSSMB()
	rr.AllocMB = allocatedMB() - alloc0
	_, sns := experiments.Fig14Summary(experiments.Fig14Throughput(outs))
	gainPct = 100 * (sns - 1)

	// Throughput is 1 / mean turnaround, so its inverse is the
	// sequence's average turnaround; report SNS's, averaged over
	// sequences. Every policy must have run every job of every
	// sequence to a positive, finite turnaround.
	var turns []float64
	for i, o := range outs {
		for _, p := range []sched.Policy{sched.CE, sched.CS, sched.SNS} {
			rr.Attempted += testbedJobs
			thr := o.Throughput[p]
			if !(thr > 0) || math.IsInf(thr, 0) || len(o.NormRun[p]) != testbedJobs {
				rr.Failed += testbedJobs
				c.fail("input %d sequence %d policy %s: throughput %g over %d jobs", input, i, p, thr, len(o.NormRun[p]))
			}
		}
		turns = append(turns, 1/o.Throughput[sched.SNS])
	}
	rr.AvgTurn = mean(turns)
	return rr, gainPct, nil
}

func testbedRep(c *runCtx, input int) (repResult, error) {
	cpu0 := cpuSeconds()
	env, err := experiments.NewEnv()
	if err != nil {
		return repResult{}, err
	}
	setup := cpuSeconds() - cpu0
	rr, _, err := testbedPass(c, input, env)
	rr.SetupCPU = setup
	return rr, err
}

// testbedTraced is one traced repetition: a RunSequences pass for the
// Fig 14 gain, then the paper's 36 sequences driven through
// sched.New/Submit/Run directly, once plain (the overhead baseline) and
// once with a span around each call and the CPU profile on.
func testbedTraced(c *runCtx, rep int) (layerRep, repResult, error) {
	tr := newTracer(c.epoch, rep)
	s := tr.begin("experiments.env_build")
	env, err := experiments.NewEnv()
	tr.end(s)
	if err != nil {
		return nil, repResult{}, err
	}
	rr, gainPct, err := testbedPass(c, rep, env)
	if err != nil {
		return nil, rr, err
	}

	seqs := max(2, experiments.SeqCount/c.scale)
	runtime.GC()
	plainS, err := schedLoop(nil, env, seqs)
	if err != nil {
		return nil, rr, err
	}
	runtime.GC()
	c.prof.start()
	tracedS, err := schedLoop(tr, env, seqs)
	c.prof.stop()
	if err != nil {
		return nil, rr, err
	}
	if c.prof.err != nil {
		return nil, rr, c.prof.err
	}

	t := totals(tr.spans)
	lr := layerRep{
		"experiments.env_build_ms": ms(t.Self["experiments.env_build"]),
		"sched.new_ms":             ms(t.Self["sched.new"]),
		"sched.submit_ms":          ms(t.Self["sched.submit"]),
		"sched.run_ms.CE":          ms(t.Self["sched.run.CE"]),
		"sched.run_ms.CS":          ms(t.Self["sched.run.CS"]),
		"sched.run_ms.SNS":         ms(t.Self["sched.run.SNS"]),
		"experiments.sns_gain_pct": gainPct,
		"bench.pass_wall_s":        rr.PassWall,
	}
	lr["bench.trace_overhead_pct"] = 100 * (tracedS/plainS - 1)
	c.spans = append(c.spans, tr.spans)
	return lr, rr, nil
}

// schedLoop runs the first seqs of the paper's sequences under CE, CS
// and SNS through sched.New/Submit/Run, one after another on this
// goroutine, with a span around each call when tr is set, and returns
// its wall time.
func schedLoop(tr *tracer, env *experiments.Env, seqs int) (float64, error) {
	t0 := time.Now()
	for i := 0; i < seqs; i++ {
		seq := seqgen.RandomSequence(rand.New(rand.NewSource(int64(1000+i))), env.Cat, testbedJobs)
		for _, p := range []sched.Policy{sched.CE, sched.CS, sched.SNS} {
			s := tr.begin("sched.new")
			sc, err := sched.New(env.Spec, env.Cat, env.DB, sched.DefaultConfig(p))
			tr.end(s)
			if err != nil {
				return 0, err
			}
			s = tr.begin("sched.submit")
			for _, js := range seq {
				if err == nil {
					err = sc.Submit(js)
				}
			}
			tr.end(s)
			if err != nil {
				return 0, err
			}
			s = tr.begin("sched.run." + p.String())
			done, err := sc.Run()
			tr.end(s)
			if err != nil || len(done) != len(seq) {
				return 0, fmt.Errorf("sequence %d policy %s finished %d of %d jobs: %v", i, p, len(done), len(seq), err)
			}
		}
	}
	return time.Since(t0).Seconds(), nil
}
