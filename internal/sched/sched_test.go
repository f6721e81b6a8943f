package sched

import (
	"math"
	"slices"
	"testing"

	"spreadnshare/internal/app"
	"spreadnshare/internal/exec"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/stats"
)

// testDB profiles the programs used by these tests once.
var sharedDB *profiler.DB

func testSetup(t *testing.T) (hw.ClusterSpec, *app.Catalog, *profiler.DB) {
	t.Helper()
	spec := hw.DefaultClusterSpec()
	cat, err := app.NewCatalog(spec.Node)
	if err != nil {
		t.Fatal(err)
	}
	if sharedDB == nil {
		sharedDB = profiler.NewDB()
		k := profiler.New(spec)
		if err := k.ProfileAll(cat, app.ProgramNames, 16, sharedDB); err != nil {
			t.Fatal(err)
		}
		if err := k.ProfileAll(cat, []string{"BW", "HC", "WC", "TS", "GAN"}, 28, sharedDB); err != nil {
			t.Fatal(err)
		}
	}
	return spec, cat, sharedDB
}

func runPolicy(t *testing.T, p Policy, seq []JobSpec) []*exec.Job {
	t.Helper()
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range seq {
		if err := s.Submit(js); err != nil {
			t.Fatalf("Submit(%+v): %v", js, err)
		}
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatalf("%v run: %v", p, err)
	}
	return jobs
}

func turnarounds(jobs []*exec.Job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.Turnaround()
	}
	return out
}

func TestCEExclusiveMinimumFootprint(t *testing.T) {
	jobs := runPolicy(t, CE, []JobSpec{
		{Program: "MG", Procs: 16},
		{Program: "EP", Procs: 16},
	})
	if len(jobs) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.SpanNodes() != 1 {
			t.Errorf("CE spread job %s onto %d nodes, want 1", j.Prog.Name, j.SpanNodes())
		}
		if !j.Exclusive {
			t.Errorf("CE job %s not exclusive", j.Prog.Name)
		}
		if j.WaitTime() != 0 {
			t.Errorf("CE job %s waited %g s with 8 idle nodes", j.Prog.Name, j.WaitTime())
		}
	}
}

func TestCEQueuesWhenFull(t *testing.T) {
	// Nine 16-proc jobs on 8 nodes under CE: the ninth must wait for the
	// first completion.
	seq := make([]JobSpec, 9)
	for i := range seq {
		seq[i] = JobSpec{Program: "EP", Procs: 16}
	}
	jobs := runPolicy(t, CE, seq)
	waited := 0
	for _, j := range jobs {
		if j.WaitTime() > 0 {
			waited++
		}
	}
	if waited != 1 {
		t.Errorf("%d jobs waited, want exactly 1", waited)
	}
}

func TestCSSharesNodes(t *testing.T) {
	// Two 16-proc EP jobs fit on two nodes under CE but CS may pack
	// them more tightly; at minimum they start immediately and are not
	// exclusive.
	jobs := runPolicy(t, CS, []JobSpec{
		{Program: "EP", Procs: 16},
		{Program: "EP", Procs: 16},
		{Program: "EP", Procs: 16},
	})
	for _, j := range jobs {
		if j.Exclusive {
			t.Errorf("CS job %d exclusive", j.ID)
		}
		if j.WaitTime() != 0 {
			t.Errorf("CS job %d waited %g s", j.ID, j.WaitTime())
		}
	}
}

func TestCSPrefersCompactThenSpreads(t *testing.T) {
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(CS))
	if err != nil {
		t.Fatal(err)
	}
	// Fill every node to 8 free cores with 20-proc jobs.
	for i := 0; i < 8; i++ {
		if err := s.Submit(JobSpec{Program: "HC", Procs: 20}); err != nil {
			t.Fatal(err)
		}
	}
	// A 16-proc WC job cannot fit at k=1 (needs 16 free on one node),
	// so CS must spread it over 2 nodes x 8 cores.
	if err := s.Submit(JobSpec{Program: "WC", Procs: 16}); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var wc *exec.Job
	for _, j := range jobs {
		if j.Prog.Name == "WC" {
			wc = j
		}
	}
	if wc == nil {
		t.Fatal("WC job missing")
	}
	if wc.SpanNodes() != 2 {
		t.Errorf("CS placed blocked WC on %d nodes, want 2 (lowest feasible scale)", wc.SpanNodes())
	}
	if wc.WaitTime() != 0 {
		t.Errorf("WC waited %g s; CS should spread instead of waiting", wc.WaitTime())
	}
}

func TestSNSSpreadsScalingJob(t *testing.T) {
	jobs := runPolicy(t, SNS, []JobSpec{{Program: "MG", Procs: 16}})
	j := jobs[0]
	if j.SpanNodes() < 2 {
		t.Errorf("SNS ran scaling job MG on %d nodes, want its ideal spread", j.SpanNodes())
	}
	if j.Ways <= 0 {
		t.Errorf("SNS job has no CAT allocation")
	}
}

func TestSNSKeepsCompactJobCompact(t *testing.T) {
	jobs := runPolicy(t, SNS, []JobSpec{{Program: "BFS", Procs: 16}})
	if got := jobs[0].SpanNodes(); got != 1 {
		t.Errorf("SNS spread compact job BFS onto %d nodes, want 1", got)
	}
}

func TestSNSFasterThanCEOnScalingMix(t *testing.T) {
	seq := []JobSpec{
		{Program: "MG", Procs: 16}, {Program: "BW", Procs: 16},
		{Program: "LU", Procs: 16}, {Program: "HC", Procs: 16},
		{Program: "EP", Procs: 16}, {Program: "TS", Procs: 16},
		{Program: "MG", Procs: 16}, {Program: "HC", Procs: 16},
		{Program: "BW", Procs: 16}, {Program: "EP", Procs: 16},
		{Program: "LU", Procs: 16}, {Program: "TS", Procs: 16},
	}
	ce := stats.Throughput(turnarounds(runPolicy(t, CE, seq)))
	sns := stats.Throughput(turnarounds(runPolicy(t, SNS, seq)))
	if sns <= ce {
		t.Errorf("SNS throughput %.6f not above CE %.6f on a scaling-heavy mix", sns, ce)
	}
}

func TestSNSRespectsAlphaBetterThanCS(t *testing.T) {
	// A cache-hungry CG job mixed with cache thrashers on a small
	// 2-node cluster where co-location is unavoidable: CS co-locates
	// blindly; SNS must keep CG's slowdown smaller.
	seq := []JobSpec{
		{Program: "CG", Procs: 14},
		{Program: "BW", Procs: 14}, {Program: "BW", Procs: 14},
		{Program: "BW", Procs: 14},
	}
	spec, cat, db := testSetup(t)
	k := profiler.New(spec)
	if err := k.ProfileAll(cat, []string{"CG", "BW"}, 14, db); err != nil {
		t.Fatal(err)
	}
	small := spec
	small.Nodes = 2
	base, err := exec.RunSolo(small, mustProg(t, cat, "CG"), 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	cgTime := func(p Policy) float64 {
		s, err := New(small, cat, db, DefaultConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range seq {
			if err := s.Submit(js); err != nil {
				t.Fatal(err)
			}
		}
		jobs, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.Prog.Name == "CG" {
				return j.RunTime()
			}
		}
		t.Fatal("CG missing")
		return 0
	}
	cs := cgTime(CS) / base.RunTime()
	sns := cgTime(SNS) / base.RunTime()
	if cs < 1.05 {
		t.Errorf("CS CG slowdown %.2fx shows no contention; test setup broken", cs)
	}
	if sns >= cs {
		t.Errorf("SNS CG slowdown %.2fx not better than CS %.2fx", sns, cs)
	}
}

func mustProg(t *testing.T, cat *app.Catalog, name string) *app.Model {
	t.Helper()
	m, err := cat.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSubmitValidation(t *testing.T) {
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(SNS))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobSpec{Program: "NOPE", Procs: 16}); err == nil {
		t.Error("unknown program accepted")
	}
	if err := s.Submit(JobSpec{Program: "MG", Procs: 0}); err == nil {
		t.Error("zero processes accepted")
	}
	if err := s.Submit(JobSpec{Program: "GAN", Procs: 64}); err == nil {
		t.Error("single-node program exceeding a node accepted")
	}
	if err := s.Submit(JobSpec{Program: "MG", Procs: 9999}); err == nil {
		t.Error("cluster-exceeding job accepted")
	}
}

// TestSubmitRefusesUnschedulableTimes: a submit time the event clock
// cannot order is an error from Submit, never a panic inside it or a job
// that starts and finishes at NaN.
func TestSubmitRefusesUnschedulableTimes(t *testing.T) {
	spec, cat, db := testSetup(t)
	for _, tc := range []struct {
		name   string
		submit float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"negative", -1},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(spec, cat, db, DefaultConfig(SNS))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Submit(JobSpec{Program: "MG", Procs: 16, Submit: tc.submit}); err == nil {
				t.Fatalf("submit time %g accepted", tc.submit)
			}
			if done, err := s.Run(); err != nil || len(done) != 0 {
				t.Fatalf("refused submission left work behind: %d jobs done, err %v", len(done), err)
			}
		})
	}
}

// TestSubmitAlphaNaNIsUnset: α outside (0, 1] means "use the default",
// NaN included, so a NaN threshold reserves what an unset one does.
func TestSubmitAlphaNaNIsUnset(t *testing.T) {
	ways := func(alpha float64) []int {
		jobs := runPolicy(t, SNS, []JobSpec{
			{Program: "MG", Procs: 16, Alpha: alpha},
			{Program: "CG", Procs: 16, Alpha: alpha},
		})
		out := make([]int, len(jobs))
		for _, j := range jobs {
			if !(j.Alpha > 0 && j.Alpha <= 1) {
				t.Fatalf("job %s kept α = %g", j.Prog.Name, j.Alpha)
			}
			out[j.ID] = j.Ways.Int()
		}
		return out
	}
	if got, want := ways(math.NaN()), ways(0); !slices.Equal(got, want) {
		t.Errorf("α = NaN reserves ways %v, an unset α %v", got, want)
	}
}

func TestNewValidation(t *testing.T) {
	spec, cat, _ := testSetup(t)
	if _, err := New(spec, cat, nil, DefaultConfig(SNS)); err == nil {
		t.Error("SNS without profile DB accepted")
	}
	if _, err := New(spec, cat, nil, DefaultConfig(CE)); err != nil {
		t.Errorf("CE without DB rejected: %v", err)
	}
}

func TestArrivalOverTime(t *testing.T) {
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(SNS))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobSpec{Program: "EP", Procs: 16, Submit: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobSpec{Program: "EP", Procs: 16, Submit: 50}); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Start < j.Submit {
			t.Errorf("job %d started at %g before submission %g", j.ID, j.Start, j.Submit)
		}
	}
}

func TestFIFOOrderWithinPolicy(t *testing.T) {
	// Submitting identical jobs, starts must follow submission order.
	seq := make([]JobSpec, 12)
	for i := range seq {
		seq[i] = JobSpec{Program: "MG", Procs: 16}
	}
	jobs := runPolicy(t, CE, seq)
	byID := make(map[int]*exec.Job)
	for _, j := range jobs {
		byID[j.ID] = j
	}
	for id := 1; id < len(seq); id++ {
		if byID[id].Start < byID[id-1].Start-1e-9 {
			t.Errorf("job %d started before job %d", id, id-1)
		}
	}
}

func TestSchedulerInvariantNoOversubscription(t *testing.T) {
	// Run a busy mixed workload under SNS and assert, at every
	// completion event, that bookkeeping never oversubscribes.
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(SNS))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"MG", "CG", "EP", "LU", "BFS", "HC", "BW", "WC", "TS", "NW", "GAN", "RNN"}
	for i := 0; i < 24; i++ {
		if err := s.Submit(JobSpec{Program: names[i%len(names)], Procs: 16}); err != nil {
			t.Fatal(err)
		}
	}
	s.Engine().OnFinish(func(j *exec.Job) {
		for _, n := range s.Cluster().Nodes {
			if n.FreeCores() < 0 || n.FreeWays() < 0 || n.FreeBW() < -1e-6 {
				t.Errorf("node %d oversubscribed at t=%.1f: cores %d ways %d bw %.1f",
					n.ID, s.Engine().Now(), n.FreeCores(), n.FreeWays(), n.FreeBW())
			}
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputOrderingOnMixedWorkload(t *testing.T) {
	// The headline claim, in miniature: on a mixed workload SNS should
	// beat CE, and CS should also beat CE.
	seq := []JobSpec{
		{Program: "MG", Procs: 16}, {Program: "HC", Procs: 16},
		{Program: "TS", Procs: 16}, {Program: "EP", Procs: 16},
		{Program: "BW", Procs: 16}, {Program: "WC", Procs: 16},
		{Program: "LU", Procs: 16}, {Program: "CG", Procs: 16},
		{Program: "GAN", Procs: 16}, {Program: "HC", Procs: 16},
		{Program: "MG", Procs: 16}, {Program: "BW", Procs: 16},
	}
	ce := stats.Throughput(turnarounds(runPolicy(t, CE, seq)))
	cs := stats.Throughput(turnarounds(runPolicy(t, CS, seq)))
	sns := stats.Throughput(turnarounds(runPolicy(t, SNS, seq)))
	if cs <= ce {
		t.Errorf("CS throughput %.6f not above CE %.6f", cs, ce)
	}
	if sns <= ce {
		t.Errorf("SNS throughput %.6f not above CE %.6f", sns, ce)
	}
}

func TestPolicyString(t *testing.T) {
	if CE.String() != "CE" || CS.String() != "CS" || SNS.String() != "SNS" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name wrong")
	}
}

func TestGeoMeanRunTimeSNSWithinAlphaBand(t *testing.T) {
	// Individual-job protection: on a random-ish mix, the geometric
	// mean normalized run time under SNS should stay within ~20% of CE
	// (the paper reports within 17.2% in the worst sequence).
	seq := []JobSpec{
		{Program: "MG", Procs: 16}, {Program: "CG", Procs: 16},
		{Program: "EP", Procs: 16}, {Program: "HC", Procs: 16},
		{Program: "BW", Procs: 16}, {Program: "NW", Procs: 16},
		{Program: "TS", Procs: 16}, {Program: "WC", Procs: 16},
	}
	spec, cat, _ := testSetup(t)
	ceTimes := map[string]float64{}
	for _, js := range seq {
		if _, ok := ceTimes[js.Program]; !ok {
			j, err := exec.RunSolo(spec, mustProg(t, cat, js.Program), js.Procs, 1)
			if err != nil {
				t.Fatal(err)
			}
			ceTimes[js.Program] = j.RunTime()
		}
	}
	var normed []float64
	for _, j := range runPolicy(t, SNS, seq) {
		normed = append(normed, j.RunTime()/ceTimes[j.Prog.Name])
	}
	if g := stats.GeoMean(normed); g > 1.25 {
		t.Errorf("SNS geo-mean normalized run time %.3f, want <= 1.25", g)
	}
	if math.IsNaN(stats.GeoMean(normed)) {
		t.Error("NaN in normalized run times")
	}
}
