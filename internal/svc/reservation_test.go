package svc

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
)

// TestRestoreRejectsBadReservations holds Restore to its error contract
// on the values it re-applies to the kernel: a running job's record, in
// either shape (one prototype, or per-node entries), whose reservations
// launch could not have written must come back as a "svc: snapshot job"
// error and a nil core — the kernel underneath panics on a core count it
// cannot index.
func TestRestoreRejectsBadReservations(t *testing.T) {
	shapes := []struct {
		name   string
		policy placement.Policy
		cases  map[string]func(rec *jobRecord)
	}{
		{"prototype", placement.SNS, map[string]func(rec *jobRecord){
			"oversize cores": func(rec *jobRecord) { rec.Res0.Cores = 92 },
			"negative cores": func(rec *jobRecord) { rec.Res0.Cores = -1 },
			"exclusive res0": func(rec *jobRecord) { rec.Res0.Exclusive = true },
			"negative ways":  func(rec *jobRecord) { rec.Res0.Ways = -2 },
			"negative bw":    func(rec *jobRecord) { rec.Res0.BW = -5 },
			"short res":      func(rec *jobRecord) { rec.Uniform = false },
			// Each entry fits an idle node; the second no longer does.
			"node listed twice": func(rec *jobRecord) { rec.Nodes[1], rec.Res0.Cores = rec.Nodes[0], 15 },
		}},
		{"per-node", placement.TwoSlot, map[string]func(rec *jobRecord){
			"oversize cores":  func(rec *jobRecord) { rec.Res[1].Cores = 92 },
			"negative cores":  func(rec *jobRecord) { rec.Res[1].Cores = -1 },
			"short res":       func(rec *jobRecord) { rec.Res = rec.Res[:len(rec.Res)-1] },
			"negative io":     func(rec *jobRecord) { rec.Res[0].IOBW = -1 },
			"entries diverge": func(rec *jobRecord) { rec.Res[1].Ways = 3 },
			"uniform with an exclusive res0": func(rec *jobRecord) {
				rec.Uniform, rec.Res0.Exclusive = true, true
			},
		}},
	}
	for _, shape := range shapes {
		c, db, node := testCore(t, shape.policy, 16)
		c.Submit(spec(db, "MG", 4, 100), 0)
		c.ScheduleRound(0, PolicyRuntime(shape.policy, node))
		if j, _ := c.Job(0); j.State != Running || (j.cores != nil) != (shape.name == "per-node") {
			t.Fatalf("%s setup: job is %s with core vector %v", shape.name, j.State, j.cores)
		}
		var good bytes.Buffer
		if err := c.Snapshot(&good); err != nil {
			t.Fatal(err)
		}
		rewrite := func(fn func(rec *jobRecord)) string {
			var s snapshot
			if err := json.Unmarshal(good.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			fn(&s.Jobs[0])
			out, err := json.Marshal(&s)
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
		for name, fn := range shape.cases {
			r, err := Restore(strings.NewReader(rewrite(fn)), db)
			if err == nil || r != nil {
				t.Errorf("%s/%s: Restore = (%v, %v), want a nil core and an error", shape.name, name, r, err)
			} else if !strings.HasPrefix(err.Error(), "svc: snapshot job 0 ") {
				t.Errorf("%s/%s: error does not name the job: %v", shape.name, name, err)
			}
		}
		// The rewrite itself is harmless, and so is the exclusive flag on
		// per-node entries: documents written before launch resolved
		// exclusive takes carry it beside the resolved cores.
		ok := rewrite(func(rec *jobRecord) {
			for i := range rec.Res {
				rec.Res[i].Exclusive = true
			}
		})
		r, err := Restore(strings.NewReader(ok), db)
		if err != nil {
			t.Fatalf("%s: valid document rejected: %v", shape.name, err)
		}
		if a, b := dumpCore(c), dumpCore(r); a != b {
			t.Errorf("%s: valid document restored as\n%s\nwant\n%s", shape.name, b, a)
		}
		r.Close()
	}
}

// TestLaunchKeepsNoPerNodeRecords is the allocation gate on launch and
// release: placing and completing a 1,024-node job on a 4,096-node core
// may allocate the job's node list (8 B per node-slot) and, for
// TwoSlot's uneven plan, its core vector (another 8), and nothing else
// that grows with the footprint — no per-node reservation record (48 B
// a slot before launch resolved exclusive takes), no repeated-value
// core vector per Place. It reads the allocator's own byte count, so it
// needs no clock and holds at any CPU count.
func TestLaunchKeepsNoPerNodeRecords(t *testing.T) {
	limits := []struct {
		policy  placement.Policy
		perSlot float64
	}{
		{placement.CE, 10}, {placement.CS, 10}, {placement.SNS, 10}, {placement.TwoSlot, 18},
	}
	for _, lim := range limits {
		c, db, node := testCore(t, lim.policy, 4096)
		model := PolicyRuntime(lim.policy, node)
		sp := spec(db, "MG", 1024, 100)
		// One half-node slot per node, so TwoSlot's plan spans the
		// footprint and its last node takes the remainder.
		sp.Intensive = lim.policy == placement.TwoSlot
		cycle := func(now float64) int {
			j, err := c.Submit(sp, now)
			if err != nil {
				t.Fatal(err)
			}
			if placed := c.ScheduleRound(now, model); len(placed) != 1 {
				t.Fatalf("%s: 1,024-node job not placed on an idle 4,096-node core", lim.policy)
			}
			if uneven := lim.policy == placement.TwoSlot; (j.cores != nil) != uneven {
				t.Fatalf("%s: core vector %v, want one = %v", lim.policy, j.cores != nil, uneven)
			}
			if err := c.Complete(j.ID, now+1); err != nil {
				t.Fatal(err)
			}
			return j.NodesUsed
		}
		for i := 0; i < 8; i++ { // grow scratch, the constant table and the cache's lists
			cycle(float64(2 * i))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		slots := 0
		for i := 8; i < 264; i++ {
			slots += cycle(float64(2 * i))
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(slots)
		t.Logf("%s: %.2f B per node-slot over %d slots", lim.policy, got, slots)
		if got > lim.perSlot {
			t.Errorf("%s: launch+release allocate %.1f B per node-slot, want <= %.0f", lim.policy, got, lim.perSlot)
		}
	}
}

// TestLaunchResolvesUnevenExclusiveTake covers the exclusive plan no
// policy writes today: nodes that are not equally free. launch must
// take what a per-node exclusive Reserve would — every free core of each
// node — keep that as the job's core vector, and give it all back.
func TestLaunchResolvesUnevenExclusiveTake(t *testing.T) {
	c, db, node := testCore(t, placement.CS, 4)
	model := PolicyRuntime(placement.CS, node)
	sharer, _ := c.Submit(spec(db, "MG", 1, 100), 0) // 16 cores of the tightest node
	c.ScheduleRound(0, model)
	if sharer.State != Running || len(sharer.Nodes) != 1 {
		t.Fatalf("setup: %+v", sharer)
	}
	busy := sharer.Nodes[0]
	idle := (busy + 1) % 4
	left := node.Cores.Int() - sharer.res0.Cores

	j, _ := c.Submit(spec(db, "EP", 2, 100), 1)
	c.pending.Remove(j.ID)
	c.launch(j, &placement.Plan{Nodes: []int{idle, busy}, Cores: []int{16, 16}, Exclusive: true, K: 1}, 1, model)
	if j.uniform || !slices.Equal(j.cores, []int{node.Cores.Int(), left}) || j.res0.Exclusive {
		t.Fatalf("uneven exclusive take held as uniform=%v cores=%v res0=%+v, want cores [%d %d]",
			j.uniform, j.cores, j.res0, node.Cores.Int(), left)
	}
	idx := c.state.Index()
	if idx.Free(idle) != 0 || idx.Free(busy) != 0 {
		t.Fatalf("dedicated nodes keep %d and %d cores free", idx.Free(idle), idx.Free(busy))
	}
	if err := c.Complete(j.ID, 2); err != nil {
		t.Fatal(err)
	}
	if idx.Free(idle) != node.Cores.Int() || idx.Free(busy) != left || j.cores != nil {
		t.Fatalf("after release: %d and %d cores free, core vector %v", idx.Free(idle), idx.Free(busy), j.cores)
	}
}

// TestMemoryIsReserved holds launch to the memory the searches test: two
// 8-process jobs at 10 GB a process fit one 128 GB node side by side in
// cores but not in memory, so the second waits until the first completes,
// in the original core and in one restored from a snapshot taken while it
// waits. A TwoSlot job whose nodes take different cores holds each node's
// cores' worth, across the same round trip.
func TestMemoryIsReserved(t *testing.T) {
	cl := hw.DefaultClusterSpec()
	cat, err := app.NewCatalog(cl.Node)
	if err != nil {
		t.Fatal(err)
	}
	db := profiler.NewDB()
	if err := profiler.New(cl).ProfileAll(cat, []string{"EP"}, 8, db); err != nil {
		t.Fatal(err)
	}
	prof, _ := db.Get("EP", 8)
	newCore := func(policy placement.Policy, nodes int) *Cluster {
		c, err := New(Config{Node: cl.Node, Nodes: nodes, Policy: policy, MaxScale: 8, ScanDepth: 32, AgingPeriodSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	roundTrip := func(c *Cluster) *Cluster {
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(&buf, db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	freeMem := func(c *Cluster) []float64 {
		out := make([]float64, c.cfg.Nodes)
		for id := range out {
			out[id] = c.state.FreeMem(id)
		}
		return out
	}
	full := cl.Node.MemoryGB

	for _, policy := range []placement.Policy{placement.CS, placement.SNS} {
		c := newCore(policy, 1)
		model := PolicyRuntime(policy, cl.Node)
		js := JobSpec{Program: "EP", BaseNodes: 1, CoresPerNode: 8, RuntimeSec: 100, Alpha: 0.9, MemGBPerProc: 10, Profile: prof}
		a, _ := c.Submit(js, 0)
		b, _ := c.Submit(js, 0)
		c.ScheduleRound(0, model)
		if a.State != Running || b.State != Queued {
			t.Fatalf("%s: jobs %s and %s, want the second queued behind the first's 80 GB", policy, a.State, b.State)
		}
		r := roundTrip(c)
		for name, core := range map[string]*Cluster{"original": c, "restored": r} {
			if got := freeMem(core); got[0] != full-80 {
				t.Fatalf("%s %s: %v GB free, want %v", policy, name, got, full-80)
			}
			if placed := core.ScheduleRound(1, model); len(placed) != 0 {
				t.Fatalf("%s %s: placed job %d into memory held by job %d", policy, name, placed[0].ID, a.ID)
			}
			if err := core.Complete(a.ID, 2); err != nil {
				t.Fatal(err)
			}
			if placed := core.ScheduleRound(2, model); len(placed) != 1 || placed[0].ID != b.ID {
				t.Fatalf("%s %s: job %d not placed once job %d released its memory", policy, name, b.ID, a.ID)
			}
			if err := core.Complete(b.ID, 3); err != nil {
				t.Fatal(err)
			}
			if got := freeMem(core); got[0] != full {
				t.Fatalf("%s %s: %v GB free after both completed, want %v", policy, name, got, full)
			}
		}
	}

	// 42 processes in 14-core slots: both halves of node 0, one of node 1.
	c := newCore(placement.TwoSlot, 3)
	js := JobSpec{BaseNodes: 2, CoresPerNode: 21, RuntimeSec: 100, MemGBPerProc: 4}
	j, _ := c.Submit(js, 0)
	c.ScheduleRound(0, PolicyRuntime(placement.TwoSlot, cl.Node))
	if j.State != Running || !slices.Equal(j.cores, []int{28, 14}) {
		t.Fatalf("TwoSlot: job %s with cores %v, want [28 14]", j.State, j.cores)
	}
	want := []float64{full - 28*4, full - 14*4, full}
	r := roundTrip(c)
	for name, core := range map[string]*Cluster{"original": c, "restored": r} {
		if got := freeMem(core); !slices.Equal(got, want) {
			t.Fatalf("TwoSlot %s: %v GB free, want %v", name, got, want)
		}
		if err := core.Complete(j.ID, 1); err != nil {
			t.Fatal(err)
		}
		if got := freeMem(core); !slices.Equal(got, []float64{full, full, full}) {
			t.Fatalf("TwoSlot %s: %v GB free after completion", name, got)
		}
	}
}
