package daemon

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

func testCatalog(t *testing.T) *app.Catalog {
	t.Helper()
	cat, err := app.NewCatalog(hw.DefaultNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCoreSetString(t *testing.T) {
	cases := []struct {
		set  CoreSet
		want string
	}{
		{nil, ""},
		{CoreSet{3}, "3"},
		{CoreSet{0, 1, 2, 3}, "0-3"},
		{CoreSet{0, 2, 3, 7}, "0,2-3,7"},
		{CoreSet{14, 15, 0, 1}, "0-1,14-15"}, // unsorted input
		{CoreSet{127, 9, 11, 10, 126, 99}, "9-11,99,126-127"},
	}
	for _, c := range cases {
		before := append(CoreSet(nil), c.set...)
		if got := c.set.String(); got != c.want {
			t.Errorf("CoreSet%v = %q, want %q", before, got, c.want)
		}
		// An unsorted set is sorted in a copy, never in place: a
		// LaunchPlan's Cores is the daemon's own binding.
		for i := range before {
			if c.set[i] != before[i] {
				t.Fatalf("String reordered its receiver: %v, was %v", c.set, before)
			}
		}
	}
}

// TestActuateAllocs is the allocation gate on actuation: a warm Actuate +
// Release cycle allocates the core set the daemon binds and nothing else
// worth counting — no free lists, no launch line.
func TestActuateAllocs(t *testing.T) {
	cat := testCatalog(t)
	mg, _ := cat.Lookup("MG")
	d := New(0, hw.DefaultNodeSpec())
	if _, err := d.Actuate(1, mg, 6, 2, 0); err != nil { // a resident neighbour
		t.Fatal(err)
	}
	cycle := func() {
		plan, err := d.Actuate(2, mg, 9, 4, 0)
		if err != nil || len(plan.Cores) != 9 {
			t.Fatalf("Actuate = %+v, %v", plan, err)
		}
		if err := d.Release(2); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 2 {
		t.Errorf("a warm Actuate+Release cycle allocates %.1f objects, want at most 2", allocs)
	}
}

func TestActuateBindsBalancedSockets(t *testing.T) {
	cat := testCatalog(t)
	mg, _ := cat.Lookup("MG")
	d := New(0, hw.DefaultNodeSpec())
	plan, err := d.Actuate(1, mg, 16, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cores) != 16 {
		t.Fatalf("bound %d cores, want 16", len(plan.Cores))
	}
	// 8 per socket on the dual-14-core node.
	s0 := 0
	for _, id := range plan.Cores {
		if id < 14 {
			s0++
		}
	}
	if s0 != 8 {
		t.Errorf("socket balance %d/%d, want 8/8", s0, 16-s0)
	}
	if plan.WayMask.Count() != 4 || !plan.WayMask.Contiguous() {
		t.Errorf("way mask %v, want 4 contiguous ways", plan.WayMask)
	}
	if d.FreeCores() != 12 {
		t.Errorf("FreeCores = %d, want 12", d.FreeCores())
	}
}

func TestActuateDisjointJobs(t *testing.T) {
	cat := testCatalog(t)
	mg, _ := cat.Lookup("MG")
	hc, _ := cat.Lookup("HC")
	d := New(0, hw.DefaultNodeSpec())
	p1, err := d.Actuate(1, mg, 8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.Actuate(2, hc, 8, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range p1.Cores {
		seen[id] = true
	}
	for _, id := range p2.Cores {
		if seen[id] {
			t.Fatalf("core %d bound to both jobs", id)
		}
	}
	if p1.WayMask.Overlaps(p2.WayMask) {
		t.Errorf("way masks overlap: %v, %v", p1.WayMask, p2.WayMask)
	}
	if p2.BWCapGB != 30 {
		t.Errorf("plan cap %.1f, want 30", p2.BWCapGB)
	}
}

func TestActuateErrors(t *testing.T) {
	cat := testCatalog(t)
	mg, _ := cat.Lookup("MG")
	d := New(0, hw.DefaultNodeSpec())
	if _, err := d.Actuate(1, mg, 0, 0, 0); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := d.Actuate(1, mg, 29, 0, 0); err == nil {
		t.Error("more cores than the node has accepted")
	}
	if _, err := d.Actuate(1, mg, 8, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Actuate(1, mg, 8, 0, 0); err == nil {
		t.Error("double actuation accepted")
	}
	if _, err := d.Actuate(2, mg, 28, 0, 0); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := d.Actuate(3, mg, 4, 25, 0); err == nil {
		t.Error("LLC oversubscription accepted")
	}
	if err := d.Release(99); err == nil {
		t.Error("release of unknown job accepted")
	}
}

func TestReleaseRestores(t *testing.T) {
	cat := testCatalog(t)
	mg, _ := cat.Lookup("MG")
	d := New(0, hw.DefaultNodeSpec())
	if _, err := d.Actuate(1, mg, 16, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Release(1); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if d.FreeCores() != 28 {
		t.Errorf("FreeCores after release = %d, want 28", d.FreeCores())
	}
	if _, ok := d.Bound(1); ok {
		t.Error("job still bound after release")
	}
	// Full LLC must be allocatable again.
	if _, err := d.Actuate(2, mg, 4, 20, 0); err != nil {
		t.Errorf("full LLC not recovered: %v", err)
	}
	// Unmanaged job (ways 0) releases cleanly too.
	if err := d.Release(2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Actuate(3, mg, 4, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Release(3); err != nil {
		t.Errorf("unmanaged release failed: %v", err)
	}
}

func TestLaunchCommandsPerFramework(t *testing.T) {
	cat := testCatalog(t)
	d := New(0, hw.DefaultNodeSpec())
	cases := []struct {
		prog string
		want []string
	}{
		{"MG", []string{"mpirun", "--cpu-set", "-np 8"}},
		{"TS", []string{"SPARK_WORKER_CORES=8", "taskset"}},
		{"GAN", []string{"TF_NUM_INTRAOP_THREADS=8", "taskset"}},
		{"HC", []string{"taskset -c $c", "for c in"}},
	}
	for i, c := range cases {
		prog, _ := cat.Lookup(c.prog)
		plan, err := d.Actuate(10+i, prog, 8, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.prog, err)
		}
		cmd := plan.Command()
		for _, frag := range c.want {
			if !strings.Contains(cmd, frag) {
				t.Errorf("%s command %q missing %q", c.prog, cmd, frag)
			}
		}
		if err := d.Release(10 + i); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: any sequence of actuations and releases keeps core bindings
// disjoint and conserves the free-core count.
func TestDaemonInvariants(t *testing.T) {
	cat := testCatalog(t)
	mg, _ := cat.Lookup("MG")
	f := func(ops []uint16) bool {
		d := New(0, hw.DefaultNodeSpec())
		live := map[int]int{} // job id -> cores
		next := 1
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				for id := range live {
					if d.Release(id) != nil {
						return false
					}
					delete(live, id)
					break
				}
				continue
			}
			cores := int(op%28) + 1
			ways := int(op >> 5 % 8)
			if _, err := d.Actuate(next, mg, cores, ways, 0); err == nil {
				live[next] = cores
				next++
			}
		}
		used := 0
		seen := map[int]bool{}
		for id := range live {
			set, ok := d.Bound(id)
			if !ok || len(set) != live[id] {
				return false
			}
			for _, c := range set {
				if seen[c] {
					return false
				}
				seen[c] = true
			}
			used += len(set)
		}
		return d.FreeCores() == 28-used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPickCoresMatchesFreeListReference holds pickCores to the body it
// replaced — two free lists, a split, a concatenation, a sort — on every
// request size over random occupancies, odd core counts included.
func TestPickCoresMatchesFreeListReference(t *testing.T) {
	reference := func(d *Daemon, n int) CoreSet {
		half := d.spec.Cores.Int() / 2
		var free0, free1 []int
		for id, b := range d.busy {
			if b {
				continue
			}
			if id < half {
				free0 = append(free0, id)
			} else {
				free1 = append(free1, id)
			}
		}
		if n > len(free0)+len(free1) {
			return nil
		}
		take0 := n / 2
		take1 := n - take0
		if len(free1) > len(free0) {
			take0, take1 = take1, take0
		}
		if take0 > len(free0) {
			take1 += take0 - len(free0)
			take0 = len(free0)
		}
		if take1 > len(free1) {
			take0 += take1 - len(free1)
			take1 = len(free1)
		}
		picked := append(append(CoreSet{}, free0[:take0]...), free1[:take1]...)
		sort.Ints(picked)
		return picked
	}
	for _, cores := range []int{28, 7} {
		spec := hw.DefaultNodeSpec()
		spec.Cores = units.CoresOf(cores)
		f := func(occupancy uint32) bool {
			d := New(0, spec)
			for id := range d.busy {
				d.busy[id] = occupancy>>id&1 == 1
			}
			for n := 1; n <= cores; n++ {
				want := reference(d, n)
				got, err := d.pickCores(n)
				if (err != nil) != (want == nil) || len(got) != len(want) {
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%d-core node: %v", cores, err)
		}
	}
}

// TestActuateDefragmentsFragmentedWays drives the Defragment-and-retry
// path: after interleaved allocations and a release, the LLC holds
// enough free ways for a new job but no contiguous run — Actuate must
// repack the live partitions and satisfy the request instead of failing.
func TestActuateDefragmentsFragmentedWays(t *testing.T) {
	cat := testCatalog(t)
	mg, _ := cat.Lookup("MG")
	d := New(0, hw.DefaultNodeSpec()) // 20 LLC ways

	// A: ways 0-5, B: 6-11, C: 12-17; 18-19 stay free.
	for job := 1; job <= 3; job++ {
		if _, err := d.Actuate(job, mg, 4, 6, 0); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
	}
	// Releasing B frees 6-11: 8 ways free, but the largest contiguous
	// run is 6 — an 8-way request only fits after defragmentation.
	if err := d.Release(2); err != nil {
		t.Fatal(err)
	}
	plan, err := d.Actuate(4, mg, 4, 8, 0)
	if err != nil {
		t.Fatalf("fragmented 8-way request not repacked: %v", err)
	}
	if plan.WayMask.Count() != 8 || !plan.WayMask.Contiguous() {
		t.Fatalf("defragmented mask = %v, want 8 contiguous ways", plan.WayMask)
	}
	// Survivors keep their sizes, stay contiguous, and stay disjoint.
	masks := []hw.WayMask{plan.WayMask}
	for _, job := range []int{1, 3} {
		m, ok := d.ways.Mask(job)
		if !ok {
			t.Fatalf("job %d lost its partition in defragmentation", job)
		}
		if m.Count() != 6 || !m.Contiguous() {
			t.Fatalf("job %d repacked to %v, want 6 contiguous ways", job, m)
		}
		masks = append(masks, m)
	}
	for i := range masks {
		for j := i + 1; j < len(masks); j++ {
			if masks[i].Overlaps(masks[j]) {
				t.Fatalf("partitions overlap after defragmentation: %v, %v", masks[i], masks[j])
			}
		}
	}
	// The LLC is now exactly full: a further managed request must fail
	// outright (free ways < requested, so no defrag retry can save it).
	if _, err := d.Actuate(5, mg, 2, 4, 0); err == nil {
		t.Error("over-full LLC request accepted")
	}
}
