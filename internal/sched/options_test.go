package sched

import (
	"testing"

	"spreadnshare/internal/exec"
	"spreadnshare/internal/profiler"

	"spreadnshare/internal/units"
)

func TestExclusiveSpreadDedicatesNodes(t *testing.T) {
	spec, cat, db := testSetup(t)
	cfg := DefaultConfig(SNS)
	cfg.ExclusiveSpread = true
	s, err := New(spec, cat, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range []JobSpec{{Program: "MG", Procs: 16}, {Program: "HC", Procs: 16}} {
		if err := s.Submit(js); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !j.Exclusive {
			t.Errorf("spread-only job %s not exclusive", j.Prog.Name)
		}
		if j.Ways != 0 {
			t.Errorf("spread-only job %s has CAT allocation %d", j.Prog.Name, j.Ways)
		}
	}
	var mg *exec.Job
	for _, j := range jobs {
		if j.Prog.Name == "MG" {
			mg = j
		}
	}
	if mg.SpanNodes() < 2 {
		t.Errorf("spread-only MG on %d nodes, want its profiled spread", mg.SpanNodes())
	}
}

func TestNoGroupingStillPlaces(t *testing.T) {
	spec, cat, db := testSetup(t)
	cfg := DefaultConfig(SNS)
	cfg.NoGrouping = true
	s, err := New(spec, cat, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Submit(JobSpec{Program: "EP", Procs: 16}); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 6 {
		t.Fatalf("finished %d jobs, want 6", len(jobs))
	}
}

func TestUseMBASetsCaps(t *testing.T) {
	spec, cat, db := testSetup(t)
	spec.Node.HasMBA = true
	cfg := DefaultConfig(SNS)
	cfg.UseMBA = true
	s, err := New(spec, cat, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobSpec{Program: "MG", Procs: 16}); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	if j.BWCap <= 0 {
		t.Errorf("MBA-scheduled MG has no bandwidth cap")
	}
	if j.BWCap > spec.Node.PeakBandwidth {
		t.Errorf("cap %.1f exceeds peak", j.BWCap)
	}
}

func TestUseMBAWithoutHardwareIsUncapped(t *testing.T) {
	spec, cat, db := testSetup(t)
	cfg := DefaultConfig(SNS)
	cfg.UseMBA = true // requested, but DefaultNodeSpec has no MBA
	s, err := New(spec, cat, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobSpec{Program: "MG", Procs: 16}); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].BWCap != 0 {
		t.Errorf("cap %.1f set on MBA-less hardware, want 0", jobs[0].BWCap)
	}
}

func TestPhasedExecutionConfig(t *testing.T) {
	spec, cat, db := testSetup(t)
	run := func(phased bool) float64 {
		// CE keeps MG compact on one node, where it saturates the
		// bandwidth roofline — the regime in which phases matter.
		cfg := DefaultConfig(CE)
		cfg.PhasedExecution = phased
		s, err := New(spec, cat, db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(JobSpec{Program: "MG", Procs: 16}); err != nil {
			t.Fatal(err)
		}
		jobs, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return jobs[0].RunTime()
	}
	if run(false) == run(true) {
		t.Error("phased execution config has no effect on a saturated job")
	}
}

func TestDriftMonitorAttachment(t *testing.T) {
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(CE))
	if err != nil {
		t.Fatal(err)
	}
	m := profiler.NewDriftMonitor(0.2)
	s.AttachDriftMonitor(m)
	for i := 0; i < 3; i++ {
		if err := s.Submit(JobSpec{Program: "MG", Procs: 16}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Samples("MG", 16); got != 3 {
		t.Errorf("drift monitor has %d samples, want 3 (one per exclusive run)", got)
	}
	// A stable program must not be flagged.
	prof, _ := db.Get("MG", 16)
	m.MinSamples = 3
	if m.NeedsReprofile(prof) {
		t.Error("stable MG flagged for re-profiling")
	}
}

func TestDriftMonitorIgnoresSharedRuns(t *testing.T) {
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(SNS))
	if err != nil {
		t.Fatal(err)
	}
	m := profiler.NewDriftMonitor(0.2)
	s.AttachDriftMonitor(m)
	if err := s.Submit(JobSpec{Program: "MG", Procs: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Samples("MG", 16); got != 0 {
		t.Errorf("shared/spread run fed the drift monitor: %d samples", got)
	}
}

func TestLaunchPlansRecorded(t *testing.T) {
	spec, cat, db := testSetup(t)
	s, err := New(spec, cat, db, DefaultConfig(SNS))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(JobSpec{Program: "MG", Procs: 16}); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	plans := s.LaunchPlans()
	if len(plans) != j.SpanNodes() {
		t.Fatalf("%d plans recorded, want one per node (%d)", len(plans), j.SpanNodes())
	}
	for _, p := range plans {
		if p.JobID != j.ID || p.Program != "MG" {
			t.Errorf("plan %+v does not match job", p)
		}
		if len(p.Cores) == 0 {
			t.Error("plan has no core binding")
		}
		if j.Ways > 0 && units.WaysOf(p.WayMask.Count()) != j.Ways {
			t.Errorf("plan mask %v has %d ways, job allocated %d",
				p.WayMask, p.WayMask.Count(), j.Ways)
		}
		if p.Command() == "" {
			t.Error("plan has no launch command")
		}
	}
}

func TestMemoryCapacityConstrainsSharing(t *testing.T) {
	// BFS needs 6 GB per process; two 14-process BFS jobs fit one
	// 28-core node by cores (14+14) but not by memory (84+84 > 128).
	spec, cat, db := testSetup(t)
	small := spec
	small.Nodes = 2
	for _, p := range []Policy{CS, SNS} {
		s, err := New(small, cat, db, DefaultConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		k := profiler.New(spec)
		if err := k.ProfileAll(cat, []string{"BFS"}, 14, db); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Submit(JobSpec{Program: "BFS", Procs: 14}); err != nil {
				t.Fatal(err)
			}
		}
		// Assert the hard memory invariant at every scheduling event.
		s.Engine().OnFinish(func(_ *exec.Job) {
			for _, n := range s.Cluster().Nodes {
				if n.FreeMem() < -1e-6 {
					t.Errorf("%v: node %d memory oversubscribed (%.1f GB free)",
						p, n.ID, n.FreeMem())
				}
			}
		})
		jobs, err := s.Run()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		// Two 84 GB jobs can never have run compactly (14 cores on one
		// node) at the same time: any pair overlapping in time on a
		// shared node must include a spread (7-core) placement.
		for i, a := range jobs {
			for _, b := range jobs[i+1:] {
				if !(a.Start < b.Finish && b.Start < a.Finish) {
					continue
				}
				for _, na := range a.Nodes {
					for _, nb := range b.Nodes {
						if na == nb && a.SpanNodes() == 1 && b.SpanNodes() == 1 {
							t.Errorf("%v: two compact 84 GB jobs overlapped on node %d",
								p, na)
						}
					}
				}
			}
		}
	}
}

// TestSNSAccountsIOBandwidth: two I/O-heavy TS jobs must not be
// co-located on one node's 2 GB/s file-system link under SNS accounting,
// while resource-blind CS packs them together.
func TestSNSAccountsIOBandwidth(t *testing.T) {
	spec, cat, db := testSetup(t)
	k := profiler.New(spec)
	if err := k.ProfileAll(cat, []string{"TS"}, 14, db); err != nil {
		t.Fatal(err)
	}
	prof, _ := db.Get("TS", 14)
	base, _ := prof.AtK(1)
	if base.IOPerNode < 1.0 {
		t.Fatalf("TS profile I/O %.2f GB/s; profiling did not capture I/O", base.IOPerNode)
	}
	small := spec
	small.Nodes = 2
	run := func(p Policy) []*exec.Job {
		s, err := New(small, cat, db, DefaultConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Submit(JobSpec{Program: "TS", Procs: 14}); err != nil {
				t.Fatal(err)
			}
		}
		jobs, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	snsJobs := run(SNS)
	// Under SNS the two jobs' node sets must not intersect while both
	// run (each reserves ~1.4 of the 2.0 GB/s link).
	a, b := snsJobs[0], snsJobs[1]
	if a.Start < b.Finish && b.Start < a.Finish {
		for _, na := range a.Nodes {
			for _, nb := range b.Nodes {
				if na == nb {
					t.Errorf("SNS co-located two I/O-bound jobs on node %d", na)
				}
			}
		}
	}
	// CS, blind to I/O, packs them onto one node and both suffer.
	csJobs := run(CS)
	sameNode := false
	for _, na := range csJobs[0].Nodes {
		for _, nb := range csJobs[1].Nodes {
			if na == nb {
				sameNode = true
			}
		}
	}
	if sameNode && csJobs[0].RunTime() <= snsJobs[0].RunTime() {
		t.Errorf("CS I/O-blind co-location (%.1f s) not slower than SNS (%.1f s)",
			csJobs[0].RunTime(), snsJobs[0].RunTime())
	}
}
