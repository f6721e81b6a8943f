package svc

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
)

func testDB(t *testing.T) (*profiler.DB, hw.NodeSpec) {
	t.Helper()
	spec := hw.DefaultClusterSpec()
	cat, err := app.NewCatalog(spec.Node)
	if err != nil {
		t.Fatal(err)
	}
	db := profiler.NewDB()
	k := profiler.New(spec)
	if err := k.ProfileAll(cat, []string{"MG", "BW", "HC", "EP"}, 16, db); err != nil {
		t.Fatal(err)
	}
	return db, spec.Node
}

func testCore(t *testing.T, policy placement.Policy, nodes int) (*Cluster, *profiler.DB, hw.NodeSpec) {
	t.Helper()
	db, node := testDB(t)
	c, err := New(Config{
		Node: node, Nodes: nodes, Policy: policy,
		MaxScale: 8, ScanDepth: 32, AgingPeriodSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, db, node
}

func spec(db *profiler.DB, program string, nodes int, runtime float64) JobSpec {
	s := JobSpec{
		Program:      program,
		BaseNodes:    nodes,
		CoresPerNode: 16,
		RuntimeSec:   runtime,
		Alpha:        0.9,
		MultiNode:    true,
	}
	if db != nil {
		if p, ok := db.Get(program, 16); ok {
			s.Profile = p
		}
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	_, node := testDB(t)
	cases := []Config{
		{Node: node, Nodes: 0},
		{Node: node, Nodes: -4},
		{Nodes: 16}, // zero node spec fails hw validation
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, cfg)
		}
	}
}

func TestLifecycle(t *testing.T) {
	c, db, _ := testCore(t, placement.SNS, 64)
	model := PolicyRuntime(placement.SNS, c.Config().Node)

	j, err := c.Submit(spec(db, "MG", 4, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != 0 || j.State != Queued || j.SubmitSec != 0 {
		t.Fatalf("submitted job = %+v", j)
	}
	if got := c.Stats(); got.Submitted != 1 || got.Queued != 1 {
		t.Fatalf("stats after submit = %+v", got)
	}

	placed := c.ScheduleRound(0, model)
	if len(placed) != 1 || placed[0] != j {
		t.Fatalf("round placed %v, want job 0", placed)
	}
	if j.State != Running || j.StartSec != 0 || j.FinishSec <= 0 {
		t.Fatalf("placed job = %+v", j)
	}
	if j.NodesUsed == 0 || len(j.Nodes) != j.NodesUsed {
		t.Fatalf("placed footprint = %+v", j)
	}
	if got := c.Stats(); got.Running != 1 || got.Queued != 0 {
		t.Fatalf("stats after round = %+v", got)
	}

	if err := c.Complete(j.ID, j.FinishSec); err != nil {
		t.Fatal(err)
	}
	if j.State != Done {
		t.Fatalf("state after complete = %s", j.State)
	}
	if got := c.Stats(); got.Done != 1 || got.Running != 0 {
		t.Fatalf("stats after complete = %+v", got)
	}
	// All resources must be back.
	if free := c.MaxFreeCores(); free != c.Config().Node.Cores.Int() {
		t.Fatalf("max free cores after complete = %d", free)
	}

	// Lifecycle violations.
	if err := c.Complete(j.ID, 1); err == nil {
		t.Error("double Complete succeeded")
	}
	if err := c.Cancel(j.ID, 1); err == nil {
		t.Error("Cancel of done job succeeded")
	}
	if err := c.Complete(99, 1); err == nil {
		t.Error("Complete of unknown job succeeded")
	}
}

func TestSubmitValidation(t *testing.T) {
	c, db, node := testCore(t, placement.SNS, 16)
	cases := []JobSpec{
		spec(db, "MG", 0, 100),   // no nodes
		spec(db, "MG", 999, 100), // larger than cluster
		spec(db, "MG", 4, -1),    // negative runtime
		{Program: "MG", BaseNodes: 4, CoresPerNode: 0, RuntimeSec: 1},
		{Program: "MG", BaseNodes: 4, CoresPerNode: node.Cores.Int() + 1, RuntimeSec: 1},
	}
	for i, s := range cases {
		if _, err := c.Submit(s, 0); err == nil {
			t.Errorf("case %d: Submit(%+v) succeeded, want error", i, s)
		}
	}
	if got := c.Submitted(); got != 0 {
		t.Fatalf("rejected submissions were admitted: %d", got)
	}
}

func TestSubmitDeduplicatesByName(t *testing.T) {
	c, db, _ := testCore(t, placement.SNS, 64)
	s := spec(db, "MG", 4, 100)
	s.Name = "job-a"
	first, err := c.Submit(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Submit(s, 5)
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("resubmission error = %v, want ErrDuplicate", err)
	}
	if again != first {
		t.Fatalf("resubmission returned job %d, want %d", again.ID, first.ID)
	}
	if c.Submitted() != 1 || c.QueuedLen() != 1 {
		t.Fatalf("dedup admitted a duplicate: %d submitted, %d queued", c.Submitted(), c.QueuedLen())
	}
	got, ok := c.JobByName("job-a")
	if !ok || got != first {
		t.Fatalf("JobByName = %v, %v", got, ok)
	}
}

func TestCancel(t *testing.T) {
	c, db, _ := testCore(t, placement.SNS, 8)
	model := PolicyRuntime(placement.SNS, c.Config().Node)

	// Fill the cluster so the second job stays queued.
	big, _ := c.Submit(spec(db, "EP", 8, 1000), 0)
	queued, _ := c.Submit(spec(db, "MG", 8, 100), 0)
	c.ScheduleRound(0, model)
	if big.State != Running || queued.State != Queued {
		t.Fatalf("setup: big=%s queued=%s", big.State, queued.State)
	}

	// Cancel the queued job: it must leave the queue.
	if err := c.Cancel(queued.ID, 1); err != nil {
		t.Fatal(err)
	}
	if queued.State != Cancelled || c.QueuedLen() != 0 {
		t.Fatalf("after queued cancel: state=%s queue=%d", queued.State, c.QueuedLen())
	}

	// Cancel the running job: its resources must come back.
	if err := c.Cancel(big.ID, 2); err != nil {
		t.Fatal(err)
	}
	if big.State != Cancelled || big.FinishSec != 2 {
		t.Fatalf("after running cancel: %+v", big)
	}
	if free := c.MaxFreeCores(); free != c.Config().Node.Cores.Int() {
		t.Fatalf("max free cores after cancel = %d", free)
	}
	if got := c.Stats(); got.Cancelled != 2 {
		t.Fatalf("stats = %+v", got)
	}

	// A cancelled job cannot be cancelled again or completed.
	if err := c.Cancel(big.ID, 3); err == nil {
		t.Error("double cancel succeeded")
	}
	if err := c.Complete(big.ID, 3); err == nil {
		t.Error("complete of cancelled job succeeded")
	}
}

// TestBatchedAdmissionEquivalence checks the core invariant directly: a
// burst of submissions at one timestamp drained by a single round places
// exactly what a round after every submission places.
func TestBatchedAdmissionEquivalence(t *testing.T) {
	for _, policy := range []placement.Policy{placement.CE, placement.CS, placement.SNS, placement.TwoSlot} {
		db, node := testDB(t)
		progs := []string{"MG", "BW", "HC", "EP"}
		build := func() (*Cluster, RuntimeModel) {
			c, err := New(Config{
				Node: node, Nodes: 32, Policy: policy,
				MaxScale: 8, ScanDepth: 4, AgingPeriodSec: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return c, PolicyRuntime(policy, node)
		}
		serial, serialModel := build()
		batched, batchedModel := build()

		mk := func(i int) JobSpec {
			s := spec(db, progs[i%len(progs)], 1+i%6, float64(50+i*13))
			if policy == placement.TwoSlot {
				s.Intensive = i%3 == 0
			}
			return s
		}
		const burst = 24
		for i := 0; i < burst; i++ {
			if _, err := serial.Submit(mk(i), 0); err != nil {
				t.Fatal(err)
			}
			serial.ScheduleRound(0, serialModel)
			if _, err := batched.Submit(mk(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		batched.ScheduleRound(0, batchedModel)

		if serial.QueuedLen() != batched.QueuedLen() {
			t.Fatalf("%s: queue lengths diverge: serial %d, batched %d",
				policy, serial.QueuedLen(), batched.QueuedLen())
		}
		for i := 0; i < burst; i++ {
			a, _ := serial.Job(i)
			b, _ := batched.Job(i)
			if a.State != b.State || a.Scale != b.Scale || a.FinishSec != b.FinishSec { //lint:floateq bit-identity is the contract under test
				t.Fatalf("%s job %d diverges: serial %+v, batched %+v", policy, i, a, b)
			}
			if len(a.Nodes) != len(b.Nodes) {
				t.Fatalf("%s job %d footprints diverge", policy, i)
			}
			for k := range a.Nodes {
				if a.Nodes[k] != b.Nodes[k] {
					t.Fatalf("%s job %d node sets diverge at %d: %v vs %v", policy, i, k, a.Nodes, b.Nodes)
				}
			}
		}
	}
}

// TestSnapshotRestore round-trips a mid-flight core — running jobs,
// queued jobs, finished and cancelled ones — and checks the restored
// core carries bit-identical state and schedules identically afterwards.
// The second document is what a daemon started with the retired
// -shards/-mutworkers flags wrote: Config is serialised whole, so its
// snapshots carry two keys this build no longer has. Placements were
// shard- and width-invariant by contract, so ignoring the keys is
// correct; the case pins that Restore keeps tolerating unknown config
// keys (no DisallowUnknownFields without a snapshotVersion bump).
func TestSnapshotRestore(t *testing.T) {
	c, db, _ := testCore(t, placement.SNS, 16)
	model := PolicyRuntime(placement.SNS, c.Config().Node)

	named := spec(db, "MG", 4, 100)
	named.Name = "mg-1"
	c.Submit(named, 0)
	c.Submit(spec(db, "BW", 8, 200), 0)
	c.Submit(spec(db, "HC", 16, 300), 0) // whole cluster: stays queued
	c.ScheduleRound(0, model)
	doneJob, _ := c.Submit(spec(db, "EP", 1, 10), 1)
	c.ScheduleRound(1, model)
	c.Complete(doneJob.ID, doneJob.FinishSec)
	cancelled, _ := c.Submit(spec(db, "EP", 16, 10), 2)
	c.Cancel(cancelled.ID, 3)

	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := buf.String()
	docs := []struct{ name, doc string }{
		{"fresh", fresh},
		{"retired kernel knobs", strings.Replace(fresh, `"config":{`, `"config":{"Shards":64,"MutWorkers":8,`, 1)},
	}
	if docs[1].doc == fresh {
		t.Fatal("could not inject the retired keys into the snapshot's config")
	}
	restored := make([]*Cluster, len(docs))
	for i, d := range docs {
		r, err := Restore(strings.NewReader(d.doc), db)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		defer r.Close()
		restored[i] = r

		if got, want := r.Stats(), c.Stats(); got != want {
			t.Fatalf("%s: restored stats = %+v, want %+v", d.name, got, want)
		}
		c.Each(func(orig *Job) {
			got, ok := r.Job(orig.ID)
			if !ok {
				t.Fatalf("%s: job %d lost in restore", d.name, orig.ID)
			}
			if got.State != orig.State || got.SubmitSec != orig.SubmitSec || //lint:floateq round-trip must be exact
				got.StartSec != orig.StartSec || got.FinishSec != orig.FinishSec || //lint:floateq round-trip must be exact
				got.Scale != orig.Scale || got.NodesUsed != orig.NodesUsed {
				t.Fatalf("%s: job %d restored as %+v, want %+v", d.name, orig.ID, got, orig)
			}
			if got.Spec.Profile == nil && orig.Spec.Profile != nil {
				t.Fatalf("%s: job %d profile not re-resolved", d.name, orig.ID)
			}
		})
		if _, ok := r.JobByName("mg-1"); !ok {
			t.Fatalf("%s: name index lost in restore", d.name)
		}
	}

	// Every core now releases the running jobs and runs a round: the
	// queued whole-cluster job must place identically.
	finish := func(core *Cluster) *Job {
		core.Each(func(j *Job) {
			if j.State == Running {
				core.Complete(j.ID, 400)
			}
		})
		placed := core.ScheduleRound(400, model)
		if len(placed) != 1 {
			t.Fatalf("post-restore round placed %d jobs", len(placed))
		}
		return placed[0]
	}
	a := finish(c)
	for i, r := range restored {
		b := finish(r)
		if a.ID != b.ID || a.FinishSec != b.FinishSec || !slices.Equal(a.Nodes, b.Nodes) { //lint:floateq bit-identity is the contract under test
			t.Fatalf("%s: post-restore rounds diverge: %+v vs %+v", docs[i].name, a, b)
		}
	}
}

func TestSnapshotRestoreRejectsCorruption(t *testing.T) {
	c, db, _ := testCore(t, placement.SNS, 16)
	model := PolicyRuntime(placement.SNS, c.Config().Node)
	c.Submit(spec(db, "MG", 4, 100), 0)
	c.ScheduleRound(0, model)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"garbage":       "not json",
		"version":       strings.Replace(good, `"version":1`, `"version":99`, 1),
		"sparse ids":    strings.Replace(good, `"id":0`, `"id":7`, 1),
		"foreign nodes": strings.Replace(good, `"nodes":[`, `"nodes":[9999,`, 1),
	}
	for name, doc := range cases {
		if doc == good {
			t.Fatalf("case %q did not corrupt the snapshot", name)
		}
		if _, err := Restore(strings.NewReader(doc), db); err == nil {
			t.Errorf("Restore of %s snapshot succeeded, want error", name)
		}
	}

	// Unprofiled program on a live job fails; the pristine doc restores.
	if _, err := Restore(strings.NewReader(good), profiler.NewDB()); err == nil {
		t.Error("Restore with empty profile DB succeeded, want error")
	}
	if _, err := Restore(strings.NewReader(good), db); err != nil {
		t.Errorf("Restore of pristine snapshot failed: %v", err)
	}
}

// TestUniformReservationBatching pins the res0 optimization: a
// non-exclusive uniform placement stores one prototype reservation, not
// a per-node slice.
func TestUniformReservationBatching(t *testing.T) {
	c, db, _ := testCore(t, placement.SNS, 16)
	model := PolicyRuntime(placement.SNS, c.Config().Node)
	j, _ := c.Submit(spec(db, "MG", 4, 100), 0)
	c.ScheduleRound(0, model)
	if j.State != Running {
		t.Fatal("setup: job not placed")
	}
	if !j.uniform || j.res != nil {
		t.Fatalf("SNS footprint stored per-node reservations: uniform=%v res=%v", j.uniform, j.res)
	}
	if j.res0.Cores == 0 {
		t.Fatal("prototype reservation empty")
	}
}
