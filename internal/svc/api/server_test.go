package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/svc"
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

// startDaemon builds a daemon over a fresh SNS core and serves it from
// an httptest listener. Timescale compresses simulated hours into test
// milliseconds.
func startDaemon(t *testing.T, nodes int, snapshotPath string) (*Server, *Client, *profiler.DB) {
	t.Helper()
	db, node := testDB(t)
	core, err := svc.New(svc.Config{
		Node: node, Nodes: nodes, Policy: placement.SNS,
		MaxScale: 8, ScanDepth: 32, AgingPeriodSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Core:         core,
		Model:        svc.PolicyRuntime(placement.SNS, node),
		DB:           db,
		Timescale:    10000,
		SnapshotPath: snapshotPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, NewClient(ts.URL), db
}

func mgSpec(name string, nodes int) svc.JobSpec {
	return svc.JobSpec{
		Name: name, Program: "MG", BaseNodes: nodes, CoresPerNode: 16,
		RuntimeSec: 100, Alpha: 0.9, MultiNode: true,
	}
}

func TestSubmitPollLifecycle(t *testing.T) {
	_, c, _ := startDaemon(t, 32, "")

	op, err := c.Submit(mgSpec("job-a", 4))
	if err != nil {
		t.Fatal(err)
	}
	if op.Status != OpPending || op.Kind != "submit" {
		t.Fatalf("accepted op = %+v", op)
	}
	done, err := c.WaitOp(op.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.JobID < 0 || done.Deduped {
		t.Fatalf("resolved op = %+v", done)
	}

	// The job places and (at timescale 10000) completes within wall
	// milliseconds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := c.Job(done.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if v.StateName == "done" {
			if v.FinishSec <= v.StartSec {
				t.Fatalf("done job has no duration: %+v", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.StateName)
		}
		time.Sleep(time.Millisecond)
	}

	// Name lookup resolves to the same job.
	byName, err := c.JobByName("job-a")
	if err != nil || byName.ID != done.JobID {
		t.Fatalf("JobByName = %+v, %v", byName, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitIdempotency(t *testing.T) {
	_, c, _ := startDaemon(t, 32, "")
	first, err := c.SubmitWait(mgSpec("dup", 4))
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.Submit(mgSpec("dup", 4))
	if err != nil {
		t.Fatal(err)
	}
	op, err = c.WaitOp(op.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !op.Deduped || op.JobID != first {
		t.Fatalf("retry op = %+v, want dedup to job %d", op, first)
	}
	st, _ := c.Stats()
	if st.Submitted != 1 {
		t.Fatalf("duplicate admitted: %+v", st)
	}
}

func TestSubmitFailures(t *testing.T) {
	_, c, _ := startDaemon(t, 8, "")
	// Unprofiled program fails at admission, asynchronously.
	op, err := c.Submit(svc.JobSpec{
		Program: "NOPE", BaseNodes: 2, CoresPerNode: 16, RuntimeSec: 5, MultiNode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitOp(op.ID); err == nil {
		t.Error("unprofiled submission resolved successfully")
	}
	// Oversized job fails core validation.
	op, err = c.Submit(mgSpec("big", 9999))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitOp(op.ID); err == nil {
		t.Error("oversized submission resolved successfully")
	}
	// Malformed body fails synchronously.
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", http.NoBody)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body accepted with %d", resp.StatusCode)
	}
	// A valid spec with anything but whitespace after it is malformed
	// too: a second object, trailing garbage or a stray brace answers 400
	// and admits nothing.
	for i, tail := range []string{` {"program":"EP"}`, ` trailing`, `}`} {
		body, err := json.Marshal(mgSpec(fmt.Sprintf("tail-%d", i), 2))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(string(body)+tail))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec followed by %q answered %d, want 400", tail, resp.StatusCode)
		}
		if st, err := c.Stats(); err != nil || st.Submitted != 0 {
			t.Errorf("after the spec followed by %q: stats %+v, %v; want nothing admitted", tail, st, err)
		}
	}
	// A body past the 1 MiB cap is refused as too large, valid JSON or
	// not, and the daemon keeps serving.
	huge := `{"name":"` + strings.Repeat("a", 2<<20) + `","program":"MG","base_nodes":2,"cores_per_node":16}`
	resp, err = http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body answered %d, want 413", resp.StatusCode)
	}
	if st, err := c.Stats(); err != nil || st.Submitted != 0 {
		t.Errorf("after the refused body: stats %+v, %v; want a live daemon with nothing admitted", st, err)
	}
}

func TestCancelEndpoint(t *testing.T) {
	_, c, _ := startDaemon(t, 8, "")
	id, err := c.SubmitWait(mgSpec("victim", 2))
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.Cancel(id)
	if err != nil {
		t.Fatal(err)
	}
	if op, err = c.WaitOp(op.ID); err != nil {
		// The job may have completed first at this timescale; a failed
		// cancel of a done job is the correct answer then.
		v, verr := c.Job(id)
		if verr != nil || v.StateName != "done" {
			t.Fatalf("cancel failed on a %v job: %v", v.StateName, err)
		}
		return
	}
	v, err := c.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.StateName != "cancelled" {
		t.Fatalf("job after cancel = %s", v.StateName)
	}
	// Unknown job: op resolves failed.
	op, err = c.Cancel(9999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitOp(op.ID); err == nil {
		t.Error("cancel of unknown job resolved successfully")
	}
	// Names resolve on the cancel path too, mirroring GET /v1/jobs.
	id2, err := c.SubmitWait(mgSpec("victim-2", 2))
	if err != nil {
		t.Fatal(err)
	}
	op, err = c.CancelByName("victim-2")
	if err != nil {
		t.Fatal(err)
	}
	if op, err = c.WaitOp(op.ID); err != nil {
		v, verr := c.Job(id2)
		if verr != nil || v.StateName != "done" {
			t.Fatalf("cancel by name failed on a %v job: %v", v.StateName, err)
		}
	} else if op.JobID != id2 {
		t.Fatalf("cancel by name resolved job %d, want %d", op.JobID, id2)
	}
	// Unknown name: the 202 is still issued (resolution happens on the
	// scheduler goroutine); the op itself must fail.
	op, err = c.CancelByName("no-such-name")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitOp(op.ID); err == nil {
		t.Error("cancel of unknown name resolved successfully")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, c, _ := startDaemon(t, 8, "")
	req, _ := http.NewRequest(http.MethodGet, c.Base+"/v1/cluster", nil)
	req.Header.Set(requestIDHeader, "my-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "my-req-7" {
		t.Errorf("request id echoed as %q", got)
	}
	// Absent IDs are minted.
	resp, err = http.Get(c.Base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(requestIDHeader) == "" {
		t.Error("no request id minted")
	}
}

func TestAdmissionThrottle(t *testing.T) {
	db, node := testDB(t)
	core, err := svc.New(svc.Config{
		Node: node, Nodes: 8, Policy: placement.SNS, MaxScale: 8, AgingPeriodSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Core: core, Model: svc.PolicyRuntime(placement.SNS, node), DB: db,
		Timescale: 10000, MaxPendingOps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately NOT started: every accepted op stays pending, so the
	// second mutation must bounce off the throttle.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	if _, err := c.Submit(mgSpec("a", 2)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(mgSpec("b", 2))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("throttled submit error = %v, want 429", err)
	}
	srv.Start()
	srv.Shutdown()
}

// TestRestartNoLostOps is the acceptance test for daemon persistence: a
// daemon is killed mid-load, restored from its snapshot, and the client
// retries its in-flight work — nothing is lost, nothing duplicated.
func TestRestartNoLostOps(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snsd.snapshot")
	srv, c, db := startDaemon(t, 64, snap)

	const jobs = 20
	ids := make(map[string]int, jobs)
	for i := 0; i < jobs; i++ {
		spec := mgSpec("", 1+i%4)
		spec.Name = names(i)
		spec.RuntimeSec = 1e7 // outlives the test: survivors stay running/queued
		id, err := c.SubmitWait(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[spec.Name] = id
	}
	// Kill: shutdown drains accepted ops and snapshots.
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	restored, err := Load(Config{
		Model:        svc.PolicyRuntime(placement.SNS, hw.DefaultClusterSpec().Node),
		DB:           db,
		Timescale:    10000,
		SnapshotPath: snap,
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	restored.Start()
	ts := httptest.NewServer(restored)
	defer func() {
		ts.Close()
		restored.Shutdown()
	}()
	c2 := NewClient(ts.URL)

	// Every pre-restart job survived with its ID and name.
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != jobs {
		t.Fatalf("restored daemon has %d jobs, want %d", st.Submitted, jobs)
	}
	for name, id := range ids {
		v, err := c2.JobByName(name)
		if err != nil {
			t.Fatalf("job %s lost: %v", name, err)
		}
		if v.ID != id {
			t.Fatalf("job %s restored with id %d, want %d", name, v.ID, id)
		}
	}
	// Pre-restart ops are still resolvable.
	if _, err := c2.Op("op-1"); err != nil {
		t.Fatalf("pre-restart op lost: %v", err)
	}

	// The client retries every submission (it cannot know which were
	// applied): all must dedup, none may double-admit.
	for i := 0; i < jobs; i++ {
		spec := mgSpec("", 1+i%4)
		spec.Name = names(i)
		spec.RuntimeSec = 1e7
		op, err := c2.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if op, err = c2.WaitOp(op.ID); err != nil {
			t.Fatal(err)
		}
		if !op.Deduped || op.JobID != ids[spec.Name] {
			t.Fatalf("retry of %s = %+v, want dedup to %d", spec.Name, op, ids[spec.Name])
		}
	}
	st, _ = c2.Stats()
	if st.Submitted != jobs {
		t.Fatalf("retries duplicated jobs: %+v", st)
	}
	// And new work still flows.
	if _, err := c2.SubmitWait(mgSpec("post-restart", 2)); err != nil {
		t.Fatalf("post-restart submission: %v", err)
	}
}

// TestWriteSnapshotFailedRenameLeavesNoTemp points the snapshot path at
// an existing directory, so the final rename fails: writeSnapshot must
// say so and leave no temporary file beside it.
func TestWriteSnapshotFailedRenameLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snsd.snapshot")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	db, node := testDB(t)
	core, err := svc.New(svc.Config{Node: node, Nodes: 8, Policy: placement.SNS, MaxScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Core: core, Model: svc.PolicyRuntime(placement.SNS, node), DB: db, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.writeSnapshot(0); err == nil {
		t.Fatal("writeSnapshot over a directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("a failed snapshot left %s.tmp behind (stat: %v)", path, err)
	}
}

// TestSnapshotEndpointFailureKeepsLastSnapshot: a checkpoint that cannot
// be written answers 500 and leaves no temporary file — whether the
// rename fails (the path is a directory) or the temporary file cannot be
// created — and the snapshot written before the failure still restores.
func TestSnapshotEndpointFailureKeepsLastSnapshot(t *testing.T) {
	dir := t.TempDir()
	t.Run("path is a directory", func(t *testing.T) {
		path := filepath.Join(dir, "is-a-dir")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		_, c, _ := startDaemon(t, 16, path)
		var se *StatusError
		if err := c.Snapshot(); !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
			t.Fatalf("snapshot over a directory = %v, want 500", err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("a failed snapshot left %s.tmp behind (stat: %v)", path, err)
		}
	})
	t.Run("earlier snapshot survives", func(t *testing.T) {
		path := filepath.Join(dir, "snsd.snapshot")
		srv, c, db := startDaemon(t, 16, path)
		id, err := c.SubmitWait(mgSpec("kept", 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitWait(mgSpec("lost", 2)); err != nil {
			t.Fatal(err)
		}
		// A directory where the temporary file goes makes the next
		// checkpoint fail before it touches the snapshot.
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		var se *StatusError
		if err := c.Snapshot(); !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
			t.Fatalf("snapshot with its temporary file blocked = %v, want 500", err)
		}
		if err := srv.Shutdown(); err == nil {
			t.Fatal("the shutdown snapshot succeeded with its temporary file blocked")
		}
		restored, err := Load(Config{
			Model:        svc.PolicyRuntime(placement.SNS, hw.DefaultClusterSpec().Node),
			DB:           db,
			Timescale:    10000,
			SnapshotPath: path,
		}, db)
		if err != nil {
			t.Fatalf("the snapshot written before the failures does not restore: %v", err)
		}
		restored.Start()
		ts := httptest.NewServer(restored)
		defer func() {
			ts.Close()
			restored.Shutdown()
		}()
		c2 := NewClient(ts.URL)
		if v, err := c2.JobByName("kept"); err != nil || v.ID != id {
			t.Errorf("job kept = %+v, %v; want id %d", v, err, id)
		}
		if _, err := c2.JobByName("lost"); err == nil {
			t.Error("a job submitted after the last good snapshot was restored")
		}
	})
}

func names(i int) string {
	return "persist-" + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func TestRunLoad(t *testing.T) {
	_, c, _ := startDaemon(t, 128, "")
	res, err := RunLoad(c, LoadConfig{Seed: 3, Jobs: 60, MaxNodes: 8, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Submitted != 60 {
		t.Fatalf("load result = %+v", res)
	}
	if res.P99 <= 0 || res.Max < res.P99 || res.P99 < res.P50 {
		t.Fatalf("latency distribution inconsistent: %+v", res)
	}
	st, _ := c.Stats()
	if st.Submitted != 60 {
		t.Fatalf("daemon saw %d submissions, want 60", st.Submitted)
	}
}

// TestRunLoadDeterministicStream pins the generator: two runs with one
// seed submit identical specs (checked via the daemon's dedup — every
// job of the second run must dedup against the first).
func TestRunLoadDeterministicStream(t *testing.T) {
	_, c, _ := startDaemon(t, 128, "")
	first, err := RunLoad(c, LoadConfig{Seed: 9, Jobs: 30, MaxNodes: 4, Concurrency: 4})
	if err != nil || first.Submitted != 30 {
		t.Fatalf("first run: %+v, %v", first, err)
	}
	second, err := RunLoad(c, LoadConfig{Seed: 9, Jobs: 30, MaxNodes: 4, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if second.Deduped != 30 || second.Submitted != 0 {
		t.Fatalf("second run did not fully dedup: %+v", second)
	}
}

// TestBurstDrainsIntoOneRound is the batched-admission gate at the
// daemon: 500 submissions are accepted before the scheduler goroutine
// exists, so when it starts the whole burst is waiting, and it must
// drain them under one timestamp into one admission round. Every job
// then carries the same SubmitSec; a queue pass per submission would
// stamp each with a clock reading of its own.
func TestBurstDrainsIntoOneRound(t *testing.T) {
	db, node := testDB(t)
	core, err := svc.New(svc.Config{
		Node: node, Nodes: 2048, Policy: placement.SNS,
		MaxScale: 8, ScanDepth: 32, AgingPeriodSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Core: core, Model: svc.PolicyRuntime(placement.SNS, node), DB: db, Timescale: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	const burst = 500
	var last Op
	for i := 0; i < burst; i++ {
		if last, err = c.Submit(mgSpec(fmt.Sprintf("burst-%d", i), 1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	// Ops resolve in acceptance order, so the last one resolving means
	// run applied the whole burst (Shutdown alone would not show it: its
	// own drain also applies everything under one timestamp).
	if _, err := c.WaitOp(last.ID); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	stamps := map[float64]bool{}
	core.Each(func(j *svc.Job) { stamps[j.SubmitSec] = true })
	if got := core.Stats().Submitted; got != burst {
		t.Fatalf("%d of %d submissions admitted", got, burst)
	}
	if len(stamps) != 1 {
		t.Fatalf("burst admitted under %d timestamps, want one drain under one", len(stamps))
	}
}

// TestTimerDelay pins the completion timer's arming: whatever finish
// time a client's runtime produces and however slow the virtual clock,
// the delay is a duration in [0, maxTimerDelay].
func TestTimerDelay(t *testing.T) {
	for _, timescale := range []float64{1e-3, 1, 1e6} {
		for _, virtualSec := range []float64{-1e10, -5, 0, 1e-9, 30, 1e10, 1e18, 1e308, math.Inf(1)} {
			got := timerDelay(virtualSec, timescale)
			if got < 0 || got > maxTimerDelay {
				t.Errorf("timerDelay(%g, %g) = %v, outside [0, %v]", virtualSec, timescale, got, maxTimerDelay)
			}
			if virtualSec <= 0 && got != 0 {
				t.Errorf("timerDelay(%g, %g) = %v, want 0 for a completion already due", virtualSec, timescale, got)
			}
			if wall := virtualSec / timescale; wall >= maxTimerDelay.Seconds() && got != maxTimerDelay {
				t.Errorf("timerDelay(%g, %g) = %v, want the %v ceiling", virtualSec, timescale, got, maxTimerDelay)
			}
		}
	}
	if got, want := timerDelay(30, 10), 3*time.Second; got != want {
		t.Errorf("timerDelay(30, 10) = %v, want %v", got, want)
	}
}

// TestOpResolvesOnce pins the guard before each write of Op.Status: the
// first outcome of an op is its only one, whichever way round the
// second arrives, and the pending gauge moves once.
func TestOpResolvesOnce(t *testing.T) {
	boom := errors.New("boom")
	for _, first := range []error{nil, boom} {
		second := boom
		if first != nil {
			second = nil
		}
		tbl := newOpTable()
		tbl.create("submit", "", -1, 0) // stays pending: the gauge must end at 1
		op := tbl.create("submit", "", -1, 0)
		tbl.resolve(op.ID, 3, false, first, 5)
		want, _ := tbl.get(op.ID)
		if want.Status == OpPending || want.AppliedSec != 5 || want.JobID != 3 || (first == nil) != (want.Error == "") {
			t.Fatalf("first resolve (err %v) left %+v", first, want)
		}
		tbl.resolve(op.ID, 9, true, second, 7)
		if got, _ := tbl.get(op.ID); got != want {
			t.Errorf("second resolve (err %v) changed the op: %+v -> %+v", second, want, got)
		}
		if n := tbl.pendingCount(); n != 1 {
			t.Errorf("pending gauge = %d after one op resolved twice, want 1", n)
		}
	}

	// load fails an op the old process never applied, once: the failed
	// record reloads as it is and no later resolve reaches it.
	tbl := newOpTable()
	if err := tbl.load([]Op{{ID: "op-4", Kind: "submit", Status: OpPending, JobID: -1}}); err != nil {
		t.Fatal(err)
	}
	want, _ := tbl.get("op-4")
	if want.Status != OpFailed || !strings.Contains(want.Error, "retry") || tbl.pendingCount() != 0 {
		t.Fatalf("loaded pending op = %+v, pending gauge %d", want, tbl.pendingCount())
	}
	tbl.resolve("op-4", 2, false, nil, 9)
	again := newOpTable()
	if err := again.load(tbl.all()); err != nil {
		t.Fatal(err)
	}
	if got, _ := again.get("op-4"); got != want || again.pendingCount() != 0 {
		t.Errorf("after resolve and reload: %+v, pending gauge %d, want %+v and 0", got, again.pendingCount(), want)
	}
	if next := again.create("cancel", "", 0, 0); next.ID != "op-5" {
		t.Errorf("op minted after load = %s, want op-5", next.ID)
	}
}

// TestLoadRejectsBadOps: the snapshot comes from disk, so an op record
// the daemon could never have written — a status outside the three, no
// ID — fails the load instead of becoming an op clients poll forever.
func TestLoadRejectsBadOps(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snsd.snapshot")
	srv, c, db := startDaemon(t, 16, snap)
	if _, err := c.SubmitWait(mgSpec("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*Op)
	}{
		{"bad status", func(op *Op) { op.Status = "donee" }},
		{"empty status", func(op *Op) { op.Status = "" }},
		{"empty id", func(op *Op) { op.ID = "" }},
	}
	for _, tc := range cases {
		var doc daemonSnapshot
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Ops) != 1 {
			t.Fatalf("snapshot holds %d ops, want 1", len(doc.Ops))
		}
		tc.edit(&doc.Ops[0])
		edited, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "edited.snapshot")
		if err := os.WriteFile(path, edited, 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := Load(Config{
			Model:        svc.PolicyRuntime(placement.SNS, hw.DefaultClusterSpec().Node),
			DB:           db,
			Timescale:    10000,
			SnapshotPath: path,
		}, db)
		if err == nil || !strings.Contains(err.Error(), "api: snapshot op ") || got != nil {
			t.Errorf("%s: Load returned server %v, err %v; want no server and a snapshot-op error", tc.name, got != nil, err)
		}
	}
}

// TestLoadRejectsTrailingData: a snapshot file holds exactly one JSON
// document; anything after it is corruption, not something to ignore.
func TestLoadRejectsTrailingData(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snsd.snapshot")
	srv, _, db := startDaemon(t, 16, snap)
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, append(raw, ` {"version": 999} garbage`...), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := Load(Config{
		Model:        svc.PolicyRuntime(placement.SNS, hw.DefaultClusterSpec().Node),
		DB:           db,
		Timescale:    10000,
		SnapshotPath: snap,
	}, db)
	if err == nil || !strings.HasPrefix(err.Error(), "api: decoding snapshot") || got != nil {
		t.Errorf("Load returned server %v, err %v; want no server and a decoding error", got != nil, err)
	}
}

// TestShutdownWithoutStart: Shutdown on a server that was never started
// launches the scheduler goroutine, which drains, snapshots and closes
// the core, instead of waiting forever for a goroutine nobody started.
func TestShutdownWithoutStart(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snsd.snapshot")
	started, _, db := startDaemon(t, 16, snap)
	if err := started.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, node := testDB(t)
	core, err := svc.New(svc.Config{Node: node, Nodes: 16, Policy: placement.SNS, MaxScale: 8, ScanDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: svc.PolicyRuntime(placement.SNS, node), DB: db, Timescale: 10000}
	fresh := cfg
	fresh.Core = core
	srv, err := New(fresh)
	if err != nil {
		t.Fatal(err)
	}
	shutdownWithin(t, "New+Shutdown", srv)

	cfg.SnapshotPath = snap
	loaded, err := Load(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if shutdownWithin(t, "Load+Shutdown", loaded) {
		if _, err := os.Stat(snap); err != nil {
			t.Errorf("Load+Shutdown wrote no snapshot: %v", err)
		}
	}
}

// shutdownWithin reports whether srv.Shutdown returned, without error,
// within five seconds, and fails the test if not.
func shutdownWithin(t *testing.T, name string, srv *Server) bool {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- srv.Shutdown() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return err == nil
	case <-time.After(5 * time.Second):
		t.Errorf("%s: Shutdown still blocked after 5 s", name)
		return false
	}
}

// TestWaitOpUnknownStatus: a status the client has no arm for is an
// error on the first poll, not a reason to poll again.
func TestWaitOpUnknownStatus(t *testing.T) {
	polls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls++
		fmt.Fprint(w, `{"id":"op-1","kind":"submit","status":"donee"}`)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	errc := make(chan error, 1)
	go func() {
		_, err := c.WaitOp("op-1")
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), `unknown status "donee"`) {
			t.Errorf("WaitOp = %v, want an unknown-status error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitOp is still polling an op whose status it does not know")
	}
	ts.Close() // no request is in flight past here, so polls is settled
	if polls != 1 {
		t.Errorf("WaitOp polled %d times, want 1", polls)
	}
}
