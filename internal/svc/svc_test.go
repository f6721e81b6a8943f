package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
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
		spec(db, "MG", 4, math.NaN()),
		spec(db, "MG", 4, math.Inf(1)),
		spec(db, "MG", 4, math.Inf(-1)),
		{Program: "MG", BaseNodes: 4, CoresPerNode: 0, RuntimeSec: 1},
		{Program: "MG", BaseNodes: 4, CoresPerNode: node.Cores.Int() + 1, RuntimeSec: 1},
	}
	for _, mem := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), node.MemoryGB/16 + 1} {
		s := spec(db, "MG", 4, 100)
		s.MemGBPerProc = mem // the last: 16 processes want more than a node holds
		cases = append(cases, s)
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

	// A queued job holds nothing to complete.
	if err := c.Complete(queued.ID, 1); err == nil {
		t.Error("complete of queued job succeeded")
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
// queued jobs, finished and cancelled ones — under every policy, and
// checks the restored core carries bit-identical state and schedules
// identically afterwards. The policies differ in what a running job
// holds: CE an exclusive take resolved at launch, CS and SNS an even
// footprint, TwoSlot a per-node core vector that only the snapshot's
// per-node records carry.
// The second document is what a daemon started with the retired
// -shards/-mutworkers flags wrote: Config is serialised whole, so its
// snapshots carry two keys this build no longer has. Placements were
// shard- and width-invariant by contract, so ignoring the keys is
// correct; the case pins that Restore keeps tolerating unknown config
// keys (no DisallowUnknownFields without a snapshotVersion bump).
// The third is what a core with the retired score-cache opt-out set
// wrote. The from-scratch search placed bit-identically to the
// cached one by contract, so the restored core is cached like any other
// SNS core and must schedule exactly as the live one does. A core, fresh
// or restored, holds a score cache exactly when its policy is SNS, the
// one policy whose search reads it.
func TestSnapshotRestore(t *testing.T) {
	for _, policy := range []placement.Policy{placement.CE, placement.CS, placement.SNS, placement.TwoSlot} {
		t.Run(policy.String(), func(t *testing.T) { testSnapshotRestore(t, policy) })
	}
}

func testSnapshotRestore(t *testing.T, policy placement.Policy) {
	c, db, node := testCore(t, policy, 16)
	model := PolicyRuntime(policy, node)
	if got, want := c.search.Cache != nil, policy == placement.SNS; got != want {
		t.Fatalf("fresh core has a score cache = %v, want %v (only SNS reads one)", got, want)
	}

	doneJob, _ := c.Submit(spec(db, "EP", 2, 10), 0)
	c.ScheduleRound(0, model)
	c.Complete(doneJob.ID, doneJob.FinishSec)
	named := spec(db, "MG", 4, 100)
	named.Name = "mg-1"
	named.Intensive = true
	c.Submit(named, 20)
	c.Submit(spec(db, "BW", 8, 200), 20)
	// Two whole-cluster jobs: sharing (SNS) fits the first beside the
	// others, nothing fits the second while they run.
	c.Submit(spec(db, "HC", 16, 300), 20)
	c.Submit(spec(db, "HC", 16, 300), 20)
	c.ScheduleRound(20, model)
	cancelled, _ := c.Submit(spec(db, "EP", 16, 10), 21)
	c.Cancel(cancelled.ID, 22)
	if got := c.Stats(); got.Running < 2 || got.Queued < 1 || got.Done != 1 || got.Cancelled != 1 {
		t.Fatalf("setup: stats = %+v, want jobs running, queued, done and cancelled", got)
	}
	uneven := 0
	c.Each(func(j *Job) {
		if j.cores != nil {
			uneven++
		}
		if j.State != Running && j.cores != nil {
			t.Fatalf("job %d is %s and still holds a core vector", j.ID, j.State)
		}
	})
	if wantUneven := policy == placement.TwoSlot; (uneven > 0) != wantUneven {
		t.Fatalf("setup: %d running jobs hold a core vector, want some = %v", uneven, wantUneven)
	}

	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := buf.String()
	// A job serialises per-node reservations exactly while it holds a
	// core vector: never once finished, never for an even footprint.
	var wire snapshot
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	for _, rec := range wire.Jobs {
		j, _ := c.Job(rec.ID)
		if len(rec.Res) != len(j.cores) {
			t.Fatalf("job %d (%s) serialised %d per-node reservations for a %d-entry core vector",
				rec.ID, rec.State, len(rec.Res), len(j.cores))
		}
	}
	docs := []struct{ name, doc string }{
		{"fresh", fresh},
		{"retired kernel knobs", strings.Replace(fresh, `"config":{`, `"config":{"Shards":64,"MutWorkers":8,`, 1)},
		{"retired score-cache opt-out", strings.Replace(fresh, `"config":{`, `"config":{"NoScoreCache":true,`, 1)},
	}
	if docs[1].doc == fresh || docs[2].doc == fresh {
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

		if got, want := dumpCore(r), dumpCore(c); got != want {
			t.Fatalf("%s: restored core differs:\n-- live --\n%s\n-- restored --\n%s", d.name, want, got)
		}
		c.Each(func(orig *Job) {
			got, _ := r.Job(orig.ID)
			if got.Spec.Profile == nil && orig.Spec.Profile != nil {
				t.Fatalf("%s: job %d profile not re-resolved", d.name, orig.ID)
			}
			if orig.State == Running && (got.uniform != orig.uniform || got.res0 != orig.res0 || !slices.Equal(got.cores, orig.cores)) { //lint:floateq round-trip must be exact
				t.Fatalf("%s: job %d holds %+v %v after restore, want %+v %v",
					d.name, orig.ID, got.res0, got.cores, orig.res0, orig.cores)
			}
		})
		if _, ok := r.JobByName("mg-1"); !ok {
			t.Fatalf("%s: name index lost in restore", d.name)
		}
		if got, want := r.search.Cache != nil, policy == placement.SNS; got != want {
			t.Fatalf("%s: restored core has a score cache = %v, want %v (only SNS reads one)", d.name, got, want)
		}
	}

	// Every core now releases the running jobs and runs a round: a
	// queued whole-cluster job must place, identically.
	finish := func(core *Cluster) {
		core.Each(func(j *Job) {
			if j.State == Running {
				core.Complete(j.ID, 400)
			}
		})
		if free := core.state.Index().Count(node.Cores.Int()); free != 16 {
			t.Fatalf("%d of 16 nodes idle after every job finished", free)
		}
		if placed := core.ScheduleRound(400, model); len(placed) != 1 {
			t.Fatalf("post-restore round placed %d jobs", len(placed))
		}
	}
	finish(c)
	for i, r := range restored {
		finish(r)
		if got, want := dumpCore(r), dumpCore(c); got != want {
			t.Fatalf("%s: post-restore rounds diverge:\n-- live --\n%s\n-- restored --\n%s", docs[i].name, want, got)
		}
	}
}

// legacyExclusiveSnapshot is a document written before launch resolved
// exclusive takes (commit 1844581): an 8-node CE core with two running
// jobs, one queued and one done, every placed job — the done one too —
// carrying a per-node "res" whose entries are exclusive with the cores
// the take resolved to.
const legacyExclusiveSnapshot = `{"version":1,"config":{"Node":{"Cores":28,"FreqGHz":2.4,"LLCWays":20,"LLCSizeMB":70,"PeakBandwidth":118.26,"SingleCoreBandwidth":18.8,"NICBandwidth":6.8,"IOBandwidth":2,"NICLatencyUS":1.5,"MemoryGB":128,"MaxCLOS":16,"MinWaysPerJob":2,"HasMBA":false,"MBAGranularityPct":10},"Nodes":8,"Policy":0,"MaxScale":8,"ScanDepth":32,"AgingPeriodSec":1,"NoScoreCache":false,"AuditLabel":""},"jobs":[{"id":0,"spec":{"program":"MG","base_nodes":2,"cores_per_node":16,"runtime_sec":100,"alpha":0.9,"multi_node":true},"state":1,"submit_sec":0,"start_sec":0,"finish_sec":100,"scale":1,"nodes_used":2,"nodes":[0,1],"res0":{"Cores":0,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":false,"Intensive":false},"res":[{"Cores":28,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":true,"Intensive":false},{"Cores":28,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":true,"Intensive":false}]},{"id":1,"spec":{"program":"BW","base_nodes":3,"cores_per_node":16,"runtime_sec":200,"alpha":0.9,"multi_node":true},"state":1,"submit_sec":0,"start_sec":0,"finish_sec":200,"scale":1,"nodes_used":3,"nodes":[2,3,4],"res0":{"Cores":0,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":false,"Intensive":false},"res":[{"Cores":28,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":true,"Intensive":false},{"Cores":28,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":true,"Intensive":false},{"Cores":28,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":true,"Intensive":false}]},{"id":2,"spec":{"program":"HC","base_nodes":8,"cores_per_node":16,"runtime_sec":300,"alpha":0.9,"multi_node":true},"state":0,"submit_sec":0,"start_sec":0,"finish_sec":0,"res0":{"Cores":0,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":false,"Intensive":false}},{"id":3,"spec":{"program":"EP","base_nodes":1,"cores_per_node":16,"runtime_sec":10,"alpha":0.9,"multi_node":true},"state":2,"submit_sec":1,"start_sec":1,"finish_sec":11,"scale":1,"nodes_used":1,"nodes":[5],"res0":{"Cores":0,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":false,"Intensive":false},"res":[{"Cores":28,"Ways":0,"BW":0,"MemGB":0,"IOBW":0,"Exclusive":true,"Intensive":false}]}],"queue":[{"id":2,"submit":0,"order":2}],"capacity":{"free_bw":[118.26,118.26,118.26,118.26,118.26,118.26,118.26,118.26],"free_mem":[128,128,128,128,128,128,128,128],"free_io":[2,2,2,2,2,2,2,2]}}`

// TestSnapshotRestoreLegacyExclusive holds Restore to the documents the
// previous build wrote: the legacy core comes back in the state of a
// live core driven through the same history, and schedules like it.
func TestSnapshotRestoreLegacyExclusive(t *testing.T) {
	live, db, node := testCore(t, placement.CE, 8)
	model := PolicyRuntime(placement.CE, node)
	live.Submit(spec(db, "MG", 2, 100), 0)
	live.Submit(spec(db, "BW", 3, 200), 0)
	live.Submit(spec(db, "HC", 8, 300), 0)
	live.ScheduleRound(0, model)
	d, _ := live.Submit(spec(db, "EP", 1, 10), 1)
	live.ScheduleRound(1, model)
	live.Complete(d.ID, d.FinishSec)

	old, err := Restore(strings.NewReader(legacyExclusiveSnapshot), db)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if a, b := dumpCore(live), dumpCore(old); a != b {
		t.Fatalf("legacy restore differs from the live core:\n-- live --\n%s\n-- restored --\n%s", a, b)
	}
	for _, c := range []*Cluster{live, old} {
		c.Complete(0, 100)
		c.Complete(1, 200)
		if placed := c.ScheduleRound(200, model); len(placed) != 1 || placed[0].ID != 2 {
			t.Fatalf("whole-cluster job not placed after both running jobs finished: %v", placed)
		}
	}
	if a, b := dumpCore(live), dumpCore(old); a != b {
		t.Fatalf("legacy core schedules differently:\n-- live --\n%s\n-- restored --\n%s", a, b)
	}
	// What it writes now is the current shape: no exclusive flag, and
	// per-node records only where a running job needs them.
	var buf bytes.Buffer
	if err := old.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"Exclusive":true`) || strings.Contains(buf.String(), `"res":`) {
		t.Fatalf("re-snapshot of a legacy core still carries resolved exclusive records: %s", buf.String())
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
		"garbage":                 "not json",
		"version":                 strings.Replace(good, `"version":1`, `"version":99`, 1),
		"sparse ids":              strings.Replace(good, `"id":0`, `"id":7`, 1),
		"foreign nodes":           strings.Replace(good, `"nodes":[`, `"nodes":[9999,`, 1),
		"finish before the clock": strings.Replace(good, `"finish_sec":`, `"finish_sec":-`, 1),
		"trailing data":           good + `{"version":1} trailing garbage`,
	}
	for name, doc := range cases {
		if doc == good {
			t.Fatalf("case %q did not corrupt the snapshot", name)
		}
		if got, err := Restore(strings.NewReader(doc), db); err == nil || got != nil || !strings.HasPrefix(err.Error(), "svc: ") {
			t.Errorf("Restore of %s snapshot returned core %v, err %v; want no core and an svc: error", name, got != nil, err)
		}
	}

	// Unprofiled program on a live job fails; the pristine doc restores.
	if _, err := Restore(strings.NewReader(good), profiler.NewDB()); err == nil {
		t.Error("Restore with empty profile DB succeeded, want error")
	}
	if _, err := Restore(strings.NewReader(good), db); err != nil {
		t.Errorf("Restore of pristine snapshot failed: %v", err)
	}

	// A queue that lists one job twice keeps the other queued job out of
	// the queue forever, and two jobs under one name make JobByName
	// answer for the later; both counts still agree, so each needs its
	// own check. Job 0 holds all four CE nodes, jobs 1 and 2 wait.
	ce, _, _ := testCore(t, placement.CE, 4)
	for i, name := range []string{"a", "b", "c"} {
		s := spec(nil, "MG", 4, 100)
		s.Name = name
		if _, err := ce.Submit(s, 0); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ce.ScheduleRound(0, PolicyRuntime(placement.CE, ce.Config().Node))
		}
	}
	buf.Reset()
	if err := ce.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*snapshot){
		"queue lists a job twice": func(s *snapshot) { s.Queue[1].ID = s.Queue[0].ID },
		"two jobs share a name":   func(s *snapshot) { s.Jobs[2].Spec.Name = s.Jobs[1].Spec.Name },
	} {
		var doc snapshot
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		corrupt(&doc)
		raw, err := json.Marshal(&doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(bytes.NewReader(raw), nil); err == nil {
			t.Errorf("Restore of a snapshot whose %s succeeded, want error", name)
		}
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()), nil); err != nil {
		t.Errorf("Restore of pristine CE snapshot failed: %v", err)
	}
}

// TestUniformReservationBatching pins the record-free reservation: an
// even footprint — CE's dedicated nodes included, resolved at launch to
// the cores found free — holds one prototype and no per-node vector.
func TestUniformReservationBatching(t *testing.T) {
	for _, policy := range []placement.Policy{placement.CE, placement.CS, placement.SNS} {
		c, db, node := testCore(t, policy, 16)
		j, _ := c.Submit(spec(db, "MG", 4, 100), 0)
		c.ScheduleRound(0, PolicyRuntime(policy, node))
		if j.State != Running {
			t.Fatalf("%s setup: job not placed", policy)
		}
		if !j.uniform || j.cores != nil {
			t.Fatalf("%s footprint kept a per-node vector: uniform=%v cores=%v", policy, j.uniform, j.cores)
		}
		if j.res0.Cores == 0 || j.res0.Exclusive {
			t.Fatalf("%s prototype = %+v, want resolved non-exclusive cores", policy, j.res0)
		}
		if policy == placement.CE && j.res0.Cores != node.Cores.Int() {
			t.Fatalf("CE prototype takes %d cores of %d", j.res0.Cores, node.Cores.Int())
		}
	}
}

// TestLifecycleEdges runs the job state machine instead of proving it:
// one job is driven into each state, each operation is applied to it,
// and the outcome is compared with a table written out here — not read
// from lifecycle, so an edge added there without a decision here fails.
// A refused operation must leave the job, the per-state counts, the
// queue and the cluster's free capacity exactly as they were.
func TestLifecycleEdges(t *testing.T) {
	const (
		opRound = iota
		opComplete
		opCancel
	)
	opNames := [3]string{"ScheduleRound", "Complete", "Cancel"}
	type outcome struct {
		to      JobState
		refused bool
	}
	want := [4][3]outcome{
		Queued:    {{Running, false}, {Queued, true}, {Cancelled, false}},
		Running:   {{Running, true}, {Done, false}, {Cancelled, false}},
		Done:      {{Done, true}, {Done, true}, {Done, true}},
		Cancelled: {{Cancelled, true}, {Cancelled, true}, {Cancelled, true}},
	}
	for from := Queued; from <= Cancelled; from++ {
		for op, w := range want[from] {
			c, db, _ := testCore(t, placement.SNS, 8)
			model := PolicyRuntime(placement.SNS, c.Config().Node)
			j, err := c.Submit(spec(db, "MG", 4, 100), 0)
			if err != nil {
				t.Fatal(err)
			}
			switch from {
			case Running, Done:
				c.ScheduleRound(0, model)
				if from == Done {
					err = c.Complete(j.ID, 1)
				}
			case Cancelled:
				err = c.Cancel(j.ID, 1)
			}
			if err != nil || j.State != from {
				t.Fatalf("driving a job to %s: state %s, err %v", from, j.State, err)
			}
			if op == opRound && from != Queued {
				// A stale queue entry is the only way a round meets a
				// job that is not queued; the round must pass it over.
				c.pending.Push(j.ID, j.SubmitSec, j.Spec.Priority, j.ID)
			}
			stats, queued, free := c.Stats(), c.QueuedLen(), c.MaxFreeCores()

			switch op {
			case opRound:
				placed := c.ScheduleRound(2, model)
				if w.refused != (len(placed) == 0) {
					t.Errorf("%s job, ScheduleRound: placed %d jobs, refused want %v", from, len(placed), w.refused)
				}
			case opComplete:
				err = c.Complete(j.ID, 2)
			case opCancel:
				err = c.Cancel(j.ID, 2)
			}
			if op != opRound && w.refused != (err != nil) {
				t.Errorf("%s job, %s: err = %v, refused want %v", from, opNames[op], err, w.refused)
			}
			if j.State != w.to {
				t.Errorf("%s job, %s: state %s, want %s", from, opNames[op], j.State, w.to)
			}
			if !w.refused {
				continue
			}
			if got := c.Stats(); got != stats {
				t.Errorf("%s job, refused %s moved the counts: %+v -> %+v", from, opNames[op], stats, got)
			}
			if got := c.QueuedLen(); got != queued {
				t.Errorf("%s job, refused %s moved the queue: %d -> %d", from, opNames[op], queued, got)
			}
			if got := c.MaxFreeCores(); got != free {
				t.Errorf("%s job, refused %s moved free cores: %d -> %d", from, opNames[op], free, got)
			}
		}
	}

	// step itself: the four edges above are the only cells it accepts.
	legal := map[[2]JobState]bool{
		{Queued, Running}: true, {Queued, Cancelled}: true,
		{Running, Done}: true, {Running, Cancelled}: true,
	}
	c, _, _ := testCore(t, placement.SNS, 8)
	refusals := 0
	for from := Queued; from <= Cancelled; from++ {
		for to := Queued; to <= Cancelled; to++ {
			if legal[[2]JobState{from, to}] {
				continue
			}
			refusals++
			j := &Job{ID: 7, State: from}
			counts := c.counts
			func() {
				defer func() {
					msg := "svc: job 7: illegal transition " + from.String() + " -> " + to.String()
					if r := recover(); r != msg {
						t.Errorf("step %s -> %s: recovered %v, want panic %q", from, to, r, msg)
					}
				}()
				c.step(j, to)
			}()
			if j.State != from || c.counts != counts {
				t.Errorf("refused step %s -> %s moved state to %s, counts %v -> %v", from, to, j.State, counts, c.counts)
			}
		}
	}
	if refusals != 12 {
		t.Errorf("checked %d non-edges, want 12", refusals)
	}
}
