package sched_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/sched"
	"spreadnshare/internal/workload"
)

// testbed builds the paper's cluster, catalog and profile database the way
// experiments.NewEnv does: every program profiled at 16 processes, the
// non-power-of-2 ones at 28 too.
func testbed(t *testing.T) (hw.ClusterSpec, *app.Catalog, *profiler.DB) {
	t.Helper()
	spec := hw.DefaultClusterSpec()
	cat, err := app.NewCatalog(spec.Node)
	if err != nil {
		t.Fatal(err)
	}
	db := profiler.NewDB()
	k := profiler.New(spec)
	if err := k.ProfileAll(cat, app.ProgramNames, 16, db); err != nil {
		t.Fatal(err)
	}
	var flexible []string
	for _, name := range app.ProgramNames {
		m, _ := cat.Lookup(name)
		if !m.PowerOf2 {
			flexible = append(flexible, name)
		}
	}
	if err := k.ProfileAll(cat, flexible, 28, db); err != nil {
		t.Fatal(err)
	}
	return spec, cat, db
}

// TestLaunchPlansDigest pins what the node daemons are told to do. The
// engine never reads which cores a daemon binds or the line it would
// launch, so every figure golden is blind to them; this digest is not.
// It runs the testbed study's 36 sequences (seeds 1000-1035, 20 jobs)
// under all four policies and hashes every launch plan in issue order.
// The constants were recorded before pickCores stopped building free
// lists and the launch line became a method, with Command still a field.
func TestLaunchPlansDigest(t *testing.T) {
	spec, cat, db := testbed(t)
	want := []struct {
		policy sched.Policy
		plans  int
		digest uint64
	}{
		{sched.CE, 720, 0xb7d815195591544e},
		{sched.CS, 1137, 0x07220a29257a0c81},
		{sched.SNS, 2008, 0x3bca7faca0056799},
		{sched.TwoSlot, 1241, 0x6b0b78f3588766b0},
	}
	for _, w := range want {
		h := fnv.New64a()
		plans := 0
		for seed := int64(1000); seed <= 1035; seed++ {
			s, err := sched.New(spec, cat, db, sched.DefaultConfig(w.policy))
			if err != nil {
				t.Fatal(err)
			}
			for _, js := range workload.RandomSequence(rand.New(rand.NewSource(seed)), cat, 20) {
				if err := s.Submit(js); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Run(); err != nil {
				t.Fatalf("%v seed %d: %v", w.policy, seed, err)
			}
			for _, p := range s.LaunchPlans() {
				fmt.Fprintf(h, "%d|%s|%s|%v|%g|%s\n", p.JobID, p.Program, p.Cores, p.WayMask, p.BWCapGB, p.Command())
				plans++
			}
		}
		if plans != w.plans || h.Sum64() != w.digest {
			t.Errorf("%v: %d launch plans digest %016x, want %d plans %016x",
				w.policy, plans, h.Sum64(), w.plans, w.digest)
		}
	}
}

// TestStressAllPolicies runs randomized workloads through every policy
// with invariant checking: no job starting before submission, all jobs
// finishing, the cluster fully drained, and determinism across repeated
// runs.
func TestStressAllPolicies(t *testing.T) {
	spec, cat, db := testbed(t)

	for _, p := range []sched.Policy{sched.CE, sched.CS, sched.TwoSlot, sched.SNS} {
		for seed := int64(0); seed < 5; seed++ {
			run := func() []float64 {
				s, err := sched.New(spec, cat, db, sched.DefaultConfig(p))
				if err != nil {
					t.Fatal(err)
				}
				seq := workload.RandomSequence(rand.New(rand.NewSource(seed)), cat, 15)
				for _, js := range seq {
					if err := s.Submit(js); err != nil {
						t.Fatal(err)
					}
				}
				jobs, err := s.Run()
				if err != nil {
					t.Fatalf("%v seed %d: %v", p, seed, err)
				}
				if len(jobs) != 15 {
					t.Fatalf("%v seed %d: %d jobs finished, want 15", p, seed, len(jobs))
				}
				var finishes []float64
				for _, j := range jobs {
					if j.Start < j.Submit {
						t.Fatalf("%v: job started before submit", p)
					}
					if j.RunTime() <= 0 {
						t.Fatalf("%v: non-positive run time", p)
					}
					finishes = append(finishes, j.Finish)
				}
				for _, n := range s.Cluster().Nodes {
					if !n.Idle() {
						t.Fatalf("%v seed %d: node %d not idle after drain", p, seed, n.ID)
					}
				}
				return finishes
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v seed %d: non-deterministic schedule", p, seed)
				}
			}
		}
	}
}
