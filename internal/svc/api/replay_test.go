package api

import (
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/svc"
	"spreadnshare/internal/trace"
)

// testClock is virtual time a test steps by hand; the daemon reads it
// from its scheduler goroutine and its handlers at once.
type testClock struct{ bits atomic.Uint64 }

func (c *testClock) now() float64  { return math.Float64frombits(c.bits.Load()) }
func (c *testClock) set(t float64) { c.bits.Store(math.Float64bits(t)) }

// replayStream is a seeded stream on which most jobs wait: 300 jobs of
// at most 4 nodes over 2 h, replayed on 16 nodes.
func replayStream() []trace.Job {
	jobs := trace.Synthesize(7, trace.GenConfig{Jobs: 300, SpanHours: 2, MaxNodes: 4})
	trace.MapPrograms(7, jobs, []string{"MG", "BW"}, []string{"HC", "EP"}, 0.7)
	return jobs
}

// startReplayDaemon serves srv on the test clock and returns a client
// and a stop function that shuts the daemon down.
func startReplayDaemon(t *testing.T, srv *Server, clk *testClock) (*Client, func()) {
	t.Helper()
	srv.clock.test = clk.now
	srv.Start()
	ts := httptest.NewServer(srv)
	return NewClient(ts.URL), func() {
		ts.Close()
		if err := srv.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}

// daemonReplay sends jobs to a daemon over HTTP, each at its submission
// time on the test clock, and returns the daemon's job records once
// every job has finished. restartAt > 0 shuts the daemon down before
// that job (which writes a snapshot) and finishes the stream on a
// daemon Load-ed from it.
func daemonReplay(t *testing.T, jobs []trace.Job, db *profiler.DB, node hw.NodeSpec, cfg trace.SimConfig, restartAt int) []svc.Job {
	t.Helper()
	core, err := svc.New(svc.Config{
		Node: node, Nodes: cfg.ClusterNodes, Policy: cfg.Policy,
		MaxScale: cfg.MaxScale, ScanDepth: cfg.ScanDepth, AgingPeriodSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny timescale parks the completion timer for an hour unless a
	// completion is already due: the stream steps the clock, not the wall.
	dcfg := Config{
		Core:         core,
		Model:        svc.PolicyRuntime(cfg.Policy, node),
		DB:           db,
		Timescale:    1e-6,
		SnapshotPath: filepath.Join(t.TempDir(), "snsd.snapshot"),
	}
	srv, err := New(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := &testClock{}
	c, stop := startReplayDaemon(t, srv, clk)
	for i, tj := range jobs {
		if restartAt > 0 && i == restartAt {
			stop()
			dcfg.Core = nil
			if srv, err = Load(dcfg, db); err != nil {
				t.Fatal(err)
			}
			c, stop = startReplayDaemon(t, srv, clk)
		}
		clk.set(tj.SubmitSec)
		spec := svc.JobSpec{
			Program:      tj.Program,
			BaseNodes:    tj.Nodes,
			CoresPerNode: cfg.CoresPerJobNode,
			RuntimeSec:   tj.RuntimeSec,
			Alpha:        cfg.Alpha,
			MultiNode:    true,
		}
		if cfg.Policy == trace.TwoSlot {
			prof, _ := db.Get(tj.Program, cfg.CoresPerJobNode)
			spec.Intensive = svc.BWIntensive(prof, node)
		}
		id, err := c.SubmitWait(spec)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("job %d admitted as %d", i, id)
		}
	}
	// Far past every finish: the shutdown's drain fires the rest.
	clk.set(1e12)
	stop()
	out := make([]svc.Job, 0, len(jobs))
	srv.cfg.Core.Each(func(j *svc.Job) { out = append(out, *j) })
	return out
}

// TestDaemonPlacesLikeReplay holds the daemon to the replay's admission
// rule: a stream sent over HTTP on a test clock, each job at its trace
// submission time, must start, finish and land on the very nodes
// trace.Simulate gives it — under every policy, through a restart at
// the halfway job, and on a stream where most jobs wait for a neighbour
// to finish.
func TestDaemonPlacesLikeReplay(t *testing.T) {
	db, node := testDB(t)
	jobs := replayStream()
	for _, pol := range []trace.Policy{trace.SNS, trace.CE, trace.CS, trace.TwoSlot} {
		cfg := trace.DefaultSimConfig(16, pol)
		want, err := trace.Simulate(jobs, db, node, cfg)
		if err != nil {
			t.Fatal(err)
		}
		waited := 0
		for _, j := range want.Jobs {
			if j.Wait() > 0 {
				waited++
			}
		}
		if waited < len(jobs)/2 {
			t.Fatalf("%s: only %d of %d jobs wait; the stream does not exercise completions", pol, waited, len(jobs))
		}
		for _, restartAt := range []int{0, len(jobs) / 2} {
			t.Run(fmt.Sprintf("%s/restart=%d", pol, restartAt), func(t *testing.T) {
				got := daemonReplay(t, jobs, db, node, cfg, restartAt)
				differ := 0
				for i, w := range want.Jobs {
					g := got[i]
					//lint:floateq the daemon must reproduce the replay bit for bit
					if g.State != svc.Done || g.StartSec != w.Start || g.FinishSec != w.Finish || !slices.Equal(g.Nodes, w.Nodes) {
						if differ == 0 {
							t.Errorf("job %d: daemon %s [%g, %g] on %v, replay [%g, %g] on %v",
								i, g.State, g.StartSec, g.FinishSec, g.Nodes, w.Start, w.Finish, w.Nodes)
						}
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%d of %d jobs differ from trace.Simulate (%d waited)", differ, len(jobs), waited)
				}
			})
		}
	}
}
