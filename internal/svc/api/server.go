// Package api serves a live scheduler core (internal/svc) over an
// asynchronous REST protocol, in the style of storage daemons like
// heketi: mutations return 202 Accepted with a pollable operation ID,
// and a single scheduler goroutine owns the core, draining bursts of
// accepted submissions into one batched admission round each.
//
// The daemon clock is virtual: Timescale virtual seconds elapse per wall
// second, so a replayed workload of simulated hours drives the same core
// logic in test seconds. All job timestamps in API payloads are virtual
// core seconds.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/svc"
)

// Config shapes a daemon around a core.
type Config struct {
	// Core is the live cluster; the server takes sole ownership (its
	// scheduler goroutine becomes the only toucher).
	Core *svc.Cluster
	// Model predicts placed-job runtimes; completions fire at the
	// predicted horizon on the virtual clock.
	Model svc.RuntimeModel
	// DB resolves submitted programs to scale profiles: profiles never
	// travel over the wire, so every spec naming a Program is looked up
	// here at admission. May be nil only under CE (which reads no
	// profiles).
	DB *profiler.DB
	// Timescale is virtual seconds per wall second (<= 0: 1). Large
	// values compress long workloads into short walls.
	Timescale float64
	// MaxBatch bounds how many accepted mutations one admission round
	// drains (<= 0: 4096).
	MaxBatch int
	// MaxPendingOps is the admission throttle: mutation requests beyond
	// this many unapplied ops are refused with 429 (<= 0: 8192).
	MaxPendingOps int
	// SnapshotPath, when set, is where the daemon persists its state on
	// shutdown and on POST /v1/snapshot (written atomically).
	SnapshotPath string
}

func (cfg *Config) defaults() {
	if cfg.Timescale <= 0 {
		cfg.Timescale = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4096
	}
	if cfg.MaxPendingOps <= 0 {
		cfg.MaxPendingOps = 8192
	}
}

// ErrShuttingDown is returned to requests that arrive during shutdown.
var ErrShuttingDown = errors.New("api: daemon is shutting down")

// Server is the daemon: an http.Handler plus the scheduler goroutine
// that owns the core. Construct with New or Load, call Start, serve it,
// and Shutdown to drain and (when configured) snapshot.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	ops   *opTable
	cmds  chan func(now float64)
	quit  chan struct{}
	done  chan struct{}
	start sync.Once // launches run, from Start or Shutdown
	stop  sync.Once // closes quit
	reqID atomic.Int64

	// clock is written only during construction (//sns:ownerinit); after
	// Start it is read-only, so handlers may stamp ops with clock.now().
	clock clock
	// drv owns the core's pending completions and the admission rule.
	//
	//sns:owner scheduler
	drv *svc.Driver
	// stopErr is written by the scheduler goroutine during drainAndStop;
	// Shutdown reads it only after <-done orders the write before it.
	//
	//sns:owner scheduler
	stopErr error
}

// clock maps wall time to virtual core seconds.
type clock struct {
	start time.Time
	base  float64
	scale float64
	// test, set by an in-package test before Start, replaces the wall
	// so the test steps virtual time itself; it must be safe for
	// concurrent calls.
	test func() float64
}

func (c clock) now() float64 {
	if c.test != nil {
		return c.test()
	}
	return c.base + time.Since(c.start).Seconds()*c.scale
}

// New builds a daemon over a fresh (or externally prepared) core. It
// runs before the scheduler goroutine exists, so it may touch the core
// and the scheduler state freely. Running jobs of a core handed over
// mid-flight (Load, or a caller that pre-ran rounds) have their
// completions filed in job-ID order.
//
//sns:ownerinit
func New(cfg Config) (*Server, error) {
	if cfg.Core == nil {
		return nil, errors.New("api: config needs a core")
	}
	if cfg.Model == nil {
		return nil, errors.New("api: config needs a runtime model")
	}
	cfg.defaults()
	s := &Server{
		cfg:  cfg,
		ops:  newOpTable(),
		cmds: make(chan func(now float64), cfg.MaxBatch),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		clock: clock{
			start: time.Now(),
			scale: cfg.Timescale,
		},
	}
	s.drv = svc.NewDriver(cfg.Core, cfg.Model)
	// The virtual clock resumes past every timestamp already dealt out —
	// but not past running jobs' predicted finishes, which are
	// legitimately in the future.
	cfg.Core.Each(func(j *svc.Job) {
		if j.State != svc.Running && j.FinishSec > s.clock.base {
			s.clock.base = j.FinishSec
		}
		if j.SubmitSec > s.clock.base {
			s.clock.base = j.SubmitSec
		}
		if j.StartSec > s.clock.base {
			s.clock.base = j.StartSec
		}
	})
	s.routes()
	return s, nil
}

// Load rebuilds a daemon from the snapshot at cfg.SnapshotPath: the core
// (with every reservation re-applied), the op table, and the virtual
// clock epoch. Profiles are re-resolved from db. Like New, it runs
// before the scheduler goroutine exists.
//
//sns:ownerinit
func Load(cfg Config, db *profiler.DB) (*Server, error) {
	if cfg.SnapshotPath == "" {
		return nil, errors.New("api: Load needs a snapshot path")
	}
	f, err := os.Open(cfg.SnapshotPath)
	if err != nil {
		return nil, fmt.Errorf("api: opening snapshot: %w", err)
	}
	defer f.Close()
	var snap daemonSnapshot
	if err := decodeOne(f, &snap); err != nil {
		return nil, fmt.Errorf("api: decoding snapshot: %w", err)
	}
	if snap.Version != daemonSnapshotVersion {
		return nil, fmt.Errorf("api: snapshot version %d, this build reads %d", snap.Version, daemonSnapshotVersion)
	}
	core, err := svc.Restore(bytes.NewReader(snap.Core), db)
	if err != nil {
		return nil, err
	}
	cfg.Core = core
	s, err := New(cfg)
	if err != nil {
		core.Close()
		return nil, err
	}
	if err := s.ops.load(snap.Ops); err != nil {
		core.Close()
		return nil, fmt.Errorf("api: snapshot %w", err)
	}
	if snap.NowSec > s.clock.base {
		s.clock.base = snap.NowSec
	}
	return s, nil
}

// Start launches the scheduler goroutine, once however often it or
// Shutdown is called. Serve the server (it is an http.Handler) only
// after Start.
func (s *Server) Start() {
	s.start.Do(func() { go s.run() })
}

// Shutdown stops the scheduler goroutine: it drains every accepted
// mutation (no op that got a 202 is lost), runs a final round, writes
// the snapshot when configured, and closes the core. Stop the HTTP
// listener before calling it; requests racing shutdown get 503. On a
// server never started it starts the goroutine, which does the same.
func (s *Server) Shutdown() error {
	s.Start()
	s.stop.Do(func() { close(s.quit) })
	<-s.done
	//lint:confine read after <-s.done: the scheduler goroutine's exit (and its stopErr write) happens-before this load
	return s.stopErr
}

// Nodes returns the served cluster's size. It reads configuration, not
// mutable core state, so it is safe from any goroutine.
func (s *Server) Nodes() int {
	//lint:confine Config copies the immutable construction-time config; no mutable core state is read
	return s.cfg.Core.Config().Nodes
}

// ServeHTTP implements http.Handler with the daemon middleware applied.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.withRequestID(s.withThrottle(s.mux)).ServeHTTP(w, r)
}

// ---- scheduler goroutine ----

// run is the scheduler goroutine: the one context that owns the core
// and its driver, and the daemon's input source for svc.Driver. A
// command burst is an arrival at its wake time: completions before it
// fire first, each with its round, and one round follows the burst. A
// timer wake only fires the completions due through its time. The
// annotation is the trust root the confine pass builds its proof from;
// Start spawning exactly this function is what makes it true.
//
//sns:goroutine scheduler core
func (s *Server) run() {
	defer close(s.done)
	for {
		var timerC <-chan time.Time
		var timer *time.Timer
		if next, ok := s.drv.Next(); ok {
			timer = time.NewTimer(timerDelay(next-s.clock.now(), s.cfg.Timescale))
			timerC = timer.C
		}
		select {
		case cmd := <-s.cmds:
			now := s.clock.now()
			s.drv.Advance(now)
			cmd(now)
			// Drain the burst: every mutation already accepted joins
			// this round, so a thousand concurrent submissions cost one
			// queue pass, not a thousand.
			for n := 1; n < s.cfg.MaxBatch; n++ {
				select {
				case more := <-s.cmds:
					more(now)
				default:
					n = s.cfg.MaxBatch
				}
			}
			s.drv.Round(now)
		case <-timerC:
			// A wake is not an arrival: no round beyond the completions'.
			s.drv.Advance(math.Nextafter(s.clock.now(), math.Inf(1)))
		case <-s.quit:
			if timer != nil {
				timer.Stop()
			}
			s.drainAndStop()
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// maxTimerDelay is the longest run sleeps on one arming of its completion
// timer. The loop re-arms after every wake, so a completion further off
// costs one idle wake per ceiling, and the ceiling keeps the conversion
// below inside time.Duration's range.
const maxTimerDelay = time.Hour

// timerDelay converts the virtual seconds until the next completion into
// the wall time run sleeps for it: never negative (a completion already
// due fires at once) and never above maxTimerDelay, whatever runtime a
// client supplied and however slow the virtual clock — an unclamped
// float-to-Duration conversion wraps negative past ~9.2e9 s, and the
// timer it arms fires immediately, forever.
func timerDelay(virtualSec, timescale float64) time.Duration {
	wall := virtualSec / timescale
	if wall >= maxTimerDelay.Seconds() {
		return maxTimerDelay
	}
	if wall > 0 {
		return time.Duration(wall * float64(time.Second))
	}
	return 0
}

// drainAndStop applies every accepted mutation, runs a final round,
// snapshots, and closes the core.
func (s *Server) drainAndStop() {
	now := s.clock.now()
	s.drv.Advance(now)
	for {
		select {
		case cmd := <-s.cmds:
			cmd(now)
			continue
		default:
		}
		break
	}
	s.drv.Round(now)
	if s.cfg.SnapshotPath != "" {
		s.stopErr = s.writeSnapshot(now)
	}
	s.cfg.Core.Close()
}

// exec hands a mutation to the scheduler goroutine: closures passed
// here execute on it (run drains cmds), which is what lets handlers
// touch the core inside them.
//
//sns:dispatch scheduler core
func (s *Server) exec(fn func(now float64)) error {
	select {
	case <-s.quit:
		return ErrShuttingDown
	case s.cmds <- fn:
		return nil
	}
}

// view runs a read on the scheduler goroutine and waits for it, so
// handlers never touch the core concurrently.
//
//sns:dispatch scheduler core
func (s *Server) view(fn func(now float64)) error {
	ready := make(chan struct{})
	if err := s.exec(func(now float64) {
		fn(now)
		close(ready)
	}); err != nil {
		return err
	}
	<-ready
	return nil
}

// ---- snapshot ----

const daemonSnapshotVersion = 1

// daemonSnapshot wraps the core snapshot with the daemon's own state:
// the op table and the virtual clock position.
type daemonSnapshot struct {
	Version int             `json:"version"`
	NowSec  float64         `json:"now_sec"`
	Ops     []Op            `json:"ops"`
	Core    json.RawMessage `json:"core"`
}

// writeSnapshot persists daemon state atomically and durably (see
// replaceFile). Only the scheduler goroutine calls it, so the core is
// quiescent.
func (s *Server) writeSnapshot(now float64) error {
	var core bytes.Buffer
	if err := s.cfg.Core.Snapshot(&core); err != nil {
		return err
	}
	snap := daemonSnapshot{
		Version: daemonSnapshotVersion,
		NowSec:  now,
		Ops:     s.ops.all(),
		Core:    core.Bytes(),
	}
	raw, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	return replaceFile(s.cfg.SnapshotPath, raw)
}

// replaceFile puts raw at path so that a crash at any point leaves
// either the old file or the whole new one under that name: the bytes go
// to path.tmp and are synced before the rename, and the directory is
// synced after it so the rename itself survives. On any error the
// temporary file is removed; an error before the rename leaves the old
// file, if any, untouched.
func replaceFile(path string, raw []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // already closed past the sync; the error that counts is err
			_ = os.Remove(tmp)
		}
	}()
	if _, err = f.Write(raw); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err = dir.Sync(); err != nil {
		_ = dir.Close()
		return err
	}
	return dir.Close()
}

// ---- middleware ----

// requestIDHeader propagates a caller-chosen correlation ID through op
// records and responses; the daemon mints one when absent.
const requestIDHeader = "X-Request-Id"

func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = "req-" + strconv.FormatInt(s.reqID.Add(1), 10)
			r.Header.Set(requestIDHeader, id)
		}
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// withThrottle refuses mutations while too many accepted ops await the
// scheduler goroutine — backpressure instead of an unbounded op table.
func (s *Server) withThrottle(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost || r.Method == http.MethodDelete {
			if s.ops.pendingCount() >= s.cfg.MaxPendingOps {
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests, errors.New("api: too many pending operations"))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// ---- handlers ----

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/ops/{id}", s.handleOp)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/debug/goroutines", handleGoroutines)
}

// handleGoroutines reports the process goroutine count, for leak checks:
// the smoke test baselines it after startup and asserts the post-load
// count returns to (near) the baseline, so an orphaned goroutine per
// request fails the gate instead of accumulating silently.
func handleGoroutines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]int{"goroutines": runtime.NumGoroutine()})
}

// JobView is a job payload: the core record plus the state rendered for
// humans.
type JobView struct {
	svc.Job
	StateName string `json:"state_name"`
}

func viewOf(j *svc.Job) JobView {
	return JobView{Job: *j, StateName: j.State.String()}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The status line is already on the wire; an encode failure here is
	// a dead client connection, which the server loop already surfaces.
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSubmitBody bounds a submission's body: without it one client can
// make the decoder buffer whatever it cares to send.
const maxSubmitBody = 1 << 20

// handleSubmit accepts a JobSpec, registers a pending op, and returns
// 202 with the op's location. The job is admitted (and possibly placed)
// when the scheduler goroutine drains the op into its next batched
// round. Specs with a Name are idempotent: a retry of an already-applied
// submission resolves to the existing job. A spec is a dozen scalars, so
// the body is read up to maxSubmitBody and no further, and it must hold
// the spec alone: anything after it but whitespace answers 400.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec svc.JobSpec
	if err := decodeOne(http.MaxBytesReader(w, r.Body, maxSubmitBody), &spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, fmt.Errorf("api: decoding job spec: %w", err))
		return
	}
	op := s.ops.create("submit", r.Header.Get(requestIDHeader), -1, s.clock.now())
	err := s.exec(func(now float64) {
		if err := s.resolveProfile(&spec); err != nil {
			s.ops.resolve(op.ID, -1, false, err, now)
			return
		}
		j, err := s.cfg.Core.Submit(spec, now)
		deduped := errors.Is(err, svc.ErrDuplicate)
		if deduped {
			err = nil // idempotent retry: resolve to the existing job
		}
		id := -1
		if j != nil {
			id = j.ID
		}
		s.ops.resolve(op.ID, id, deduped, err, now)
	})
	if err != nil {
		s.ops.resolve(op.ID, -1, false, err, s.clock.now())
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", "/v1/ops/"+op.ID)
	writeJSON(w, http.StatusAccepted, op)
}

// decodeOne decodes body as exactly one JSON value into v: data after
// the value, even a second valid one, is an error, so a malformed body
// never admits what its first value spelled. Trailing whitespace is fine.
func decodeOne(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the JSON value")
		}
		return err
	}
	return nil
}

// resolveProfile looks a spec's program up in the daemon's profile DB.
// Profiles never travel over the wire; every policy but CE needs one for
// its placement search or runtime model, so an unprofiled program is an
// admission failure, not a silent unprotected placement.
func (s *Server) resolveProfile(spec *svc.JobSpec) error {
	if spec.Profile != nil || s.cfg.Core.Config().Policy == placement.CE {
		return nil
	}
	if s.cfg.DB != nil && spec.Program != "" {
		if p, ok := s.cfg.DB.Get(spec.Program, spec.CoresPerNode); ok {
			spec.Profile = p
			return nil
		}
	}
	return fmt.Errorf("api: program %q unprofiled at %d cores", spec.Program, spec.CoresPerNode)
}

// handleCancel is the submit path's mirror for withdrawal. Like
// handleJob, it takes a numeric ID or a job name; name resolution
// happens on the scheduler goroutine with the cancel itself, so the
// lookup and the withdrawal see one consistent state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("id")
	id, idErr := strconv.Atoi(key)
	if idErr != nil {
		id = -1
	}
	op := s.ops.create("cancel", r.Header.Get(requestIDHeader), id, s.clock.now())
	err := s.exec(func(now float64) {
		if idErr != nil {
			j, ok := s.cfg.Core.JobByName(key)
			if !ok {
				s.ops.resolve(op.ID, -1, false, fmt.Errorf("api: no job %q", key), now)
				return
			}
			id = j.ID
		}
		s.ops.resolve(op.ID, id, false, s.cfg.Core.Cancel(id, now), now)
	})
	if err != nil {
		s.ops.resolve(op.ID, id, false, err, s.clock.now())
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", "/v1/ops/"+op.ID)
	writeJSON(w, http.StatusAccepted, op)
}

func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	op, ok := s.ops.get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no op %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, op)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	// Names resolve too, so idempotent clients can look up their jobs
	// without holding the numeric ID.
	key := r.PathValue("id")
	var view JobView
	found := false
	err := s.view(func(now float64) {
		if id, err := strconv.Atoi(key); err == nil {
			if j, ok := s.cfg.Core.Job(id); ok {
				view, found = viewOf(j), true
			}
			return
		}
		if j, ok := s.cfg.Core.JobByName(key); ok {
			view, found = viewOf(j), true
		}
	})
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if !found {
		writeErr(w, http.StatusNotFound, fmt.Errorf("api: no job %q", key))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var stats svc.Stats
	if err := s.view(func(now float64) { stats = s.cfg.Core.Stats() }); err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleSnapshot persists the daemon synchronously (between rounds, on
// the scheduler goroutine) so operators can checkpoint mid-load.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		writeErr(w, http.StatusConflict, errors.New("api: daemon has no snapshot path"))
		return
	}
	var snapErr error
	if err := s.view(func(now float64) { snapErr = s.writeSnapshot(now) }); err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	if snapErr != nil {
		writeErr(w, http.StatusInternalServerError, snapErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"path": s.cfg.SnapshotPath})
}
