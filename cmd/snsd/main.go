// Command snsd runs the spread-n-share scheduler as a service: a live
// cluster core (internal/svc) behind the async REST daemon
// (internal/svc/api). Jobs are submitted, polled, and cancelled over
// HTTP; a single scheduler goroutine drains submission bursts into
// batched admission rounds.
//
// Usage:
//
//	snsd -listen :8080 -nodes 4096 -policy SNS
//	snsd -listen :8080 -snapshot /var/lib/snsd.snapshot          # snapshot on shutdown
//	snsd -listen :8080 -snapshot /var/lib/snsd.snapshot -restore # resume from it
//
// The daemon profiles the built-in application catalog at startup (the
// same profiles the simulators use), so submitted programs are resolved
// exactly as a replay would. SIGINT/SIGTERM shut down cleanly: accepted
// operations are drained and the snapshot (when configured) is written.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/invariant"
	"spreadnshare/internal/placement"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/svc"
	"spreadnshare/internal/svc/api"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	nodes := flag.Int("nodes", 1024, "cluster size in nodes")
	policyFlag := flag.String("policy", "SNS", "placement policy: CE, CS, SNS, TwoSlot")
	maxScale := flag.Int("max-scale", 8, "scale-factor search bound")
	scanDepth := flag.Int("scan-depth", 32, "backfill scan depth per round")
	timescale := flag.Float64("timescale", 1, "virtual seconds per wall second")
	maxBatch := flag.Int("max-batch", 4096, "max submissions drained into one admission round")
	maxPending := flag.Int("max-pending-ops", 8192, "admission throttle: refuse mutations beyond this many unapplied ops")
	snapshot := flag.String("snapshot", "", "snapshot path (written on shutdown and POST /v1/snapshot)")
	restore := flag.Bool("restore", false, "restore state from the snapshot path at startup")
	invariants := flag.Bool("invariants", false, "run the invariant auditor on every scheduling round")
	flag.Parse()

	if *invariants {
		invariant.Enable()
	}
	policy, err := placement.ParsePolicy(*policyFlag)
	if err != nil {
		fatal(err)
	}

	spec := hw.DefaultClusterSpec()
	cat, err := app.NewCatalog(spec.Node)
	if err != nil {
		fatal(err)
	}
	db := profiler.NewDB()
	if err := profiler.New(spec).ProfileAll(cat, cat.Names(), 16, db); err != nil {
		fatal(err)
	}
	model := svc.PolicyRuntime(policy, spec.Node)

	cfg := api.Config{
		Model:         model,
		DB:            db,
		Timescale:     *timescale,
		MaxBatch:      *maxBatch,
		MaxPendingOps: *maxPending,
		SnapshotPath:  *snapshot,
	}
	var srv *api.Server
	if *restore {
		if *snapshot == "" {
			fatal(fmt.Errorf("snsd: -restore needs -snapshot"))
		}
		srv, err = api.Load(cfg, db)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snsd: restored state from %s\n", *snapshot)
		*nodes = srv.Nodes()
	} else {
		core, err := svc.New(svc.Config{
			Node: spec.Node, Nodes: *nodes, Policy: policy,
			MaxScale: *maxScale, ScanDepth: *scanDepth,
			AgingPeriodSec: 1, AuditLabel: "snsd",
		})
		if err != nil {
			fatal(err)
		}
		cfg.Core = core
		srv, err = api.New(cfg)
		if err != nil {
			fatal(err)
		}
	}
	srv.Start()

	hs := &http.Server{Addr: *listen, Handler: srv}
	errc := make(chan error, 1)
	//lint:goleak listener goroutine lives until the process does; the buffered errc send cannot block, so it exits once hs.Close returns
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "snsd: %s policy on %d nodes, listening on %s\n", policy, *nodes, *listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "snsd: %s, shutting down\n", sig)
	case err := <-errc:
		fatal(err)
	}
	// Stop accepting before draining the op queue.
	if err := hs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "snsd: closing listener: %v\n", err)
	}
	if err := srv.Shutdown(); err != nil {
		fatal(err)
	}
	if *snapshot != "" {
		fmt.Fprintf(os.Stderr, "snsd: state saved to %s\n", *snapshot)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
