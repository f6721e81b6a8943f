// Package workload generates the job sequences of the paper's evaluation:
// random 20-job mixes sampled from the 12 test programs (Section 6.2), and
// controlled-ratio mixes of scaling (BW) and neutral (HC) jobs for the
// scaling-ratio sweep (Section 6.3). It also computes a sequence's scaling
// ratio — the fraction of CE core-hours consumed by scaling-class jobs.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"spreadnshare/internal/app"
	"spreadnshare/internal/exec"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/sched"
)

// RandomSequence samples n jobs uniformly from the catalog's 12 programs,
// all submitted at time zero (a "time segment" of continuous batch
// scheduling). Process counts are 16 or 28 — MPI programs always get 16,
// keeping their power-of-two splits feasible on the paper's scale factors.
func RandomSequence(rng *rand.Rand, cat *app.Catalog, n int) []sched.JobSpec {
	seq := make([]sched.JobSpec, 0, n)
	names := app.ProgramNames
	for i := 0; i < n; i++ {
		name := names[rng.Intn(len(names))]
		prog, err := cat.Lookup(name)
		if err != nil {
			// The builtin name list and catalog always agree.
			panic(err)
		}
		procs := 16
		if !prog.PowerOf2 && rng.Intn(2) == 0 {
			procs = 28
		}
		seq = append(seq, sched.JobSpec{Program: name, Procs: procs})
	}
	return seq
}

// RatioMix builds a sequence of `count` full-node (28-process) jobs mixing
// BW (scaling) and HC (neutral) instances so that the scaling ratio — the
// BW share of CE core-hours — lands as close as possible to `target`.
// Order is shuffled deterministically by rng.
func RatioMix(rng *rand.Rand, target float64, count int) []sched.JobSpec {
	cat := app.MustCatalog()
	bw, _ := cat.Lookup("BW")
	hc, _ := cat.Lookup("HC")
	// With identical process counts, the core-hour ratio depends only
	// on job counts and CE run times.
	bestN, bestDiff := 0, 2.0
	for nBW := 0; nBW <= count; nBW++ {
		bwHours := float64(nBW) * bw.TargetSoloSec
		hcHours := float64(count-nBW) * hc.TargetSoloSec
		r := 0.0
		if bwHours+hcHours > 0 {
			r = bwHours / (bwHours + hcHours)
		}
		if d := abs(r - target); d < bestDiff {
			bestDiff, bestN = d, nBW
		}
	}
	seq := make([]sched.JobSpec, 0, count)
	for i := 0; i < count; i++ {
		name := "HC"
		if i < bestN {
			name = "BW"
		}
		seq = append(seq, sched.JobSpec{Program: name, Procs: 28})
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// CERunTimes measures (and caches) each sequence entry's exclusive
// compact run time — the CE baseline used for normalization and for the
// scaling-ratio metric.
type CERunTimes struct {
	spec hw.ClusterSpec
	cat  *app.Catalog

	mu    sync.Mutex
	cache map[ceKey]float64
}

// ceKey names one measurement: a program at a process count.
type ceKey struct {
	program string
	procs   int
}

// NewCERunTimes returns an empty measurement cache.
func NewCERunTimes(spec hw.ClusterSpec, cat *app.Catalog) *CERunTimes {
	return &CERunTimes{spec: spec, cat: cat, cache: make(map[ceKey]float64)}
}

// Of returns the CE (minimum footprint, exclusive) run time of a program
// at a process count.
func (c *CERunTimes) Of(program string, procs int) (float64, error) {
	key := ceKey{program, procs}
	c.mu.Lock()
	t, ok := c.cache[key]
	c.mu.Unlock()
	if ok {
		return t, nil
	}
	prog, err := c.cat.Lookup(program)
	if err != nil {
		return 0, err
	}
	nodes := (procs + c.spec.Node.Cores.Int() - 1) / c.spec.Node.Cores.Int()
	j, err := exec.RunSolo(c.spec, prog, procs, nodes)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.cache[key] = j.RunTime()
	c.mu.Unlock()
	return j.RunTime(), nil
}

// ScalingRatio computes the fraction of a sequence's CE core-hours
// consumed by scaling-class jobs, per the profile database's
// classification.
func ScalingRatio(seq []sched.JobSpec, db *profiler.DB, ce *CERunTimes) (float64, error) {
	scaling, total := 0.0, 0.0
	for _, js := range seq {
		t, err := ce.Of(js.Program, js.Procs)
		if err != nil {
			return 0, err
		}
		hours := float64(js.Procs) * t
		total += hours
		if p, ok := db.Get(js.Program, js.Procs); ok && p.Class == profiler.Scaling {
			scaling += hours
		}
	}
	if total == 0 {
		return 0, nil
	}
	return scaling / total, nil
}

// ParseJobList parses an explicit workload specification of the form
// "MG:16,HC:28,TS:16" into job specs (whitespace tolerated, empty entries
// skipped).
func ParseJobList(s string) ([]sched.JobSpec, error) {
	var seq []sched.JobSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bits := strings.Split(part, ":")
		if len(bits) != 2 {
			return nil, fmt.Errorf("workload: bad job spec %q, want PROG:PROCS", part)
		}
		procs, err := strconv.Atoi(strings.TrimSpace(bits[1]))
		if err != nil {
			return nil, fmt.Errorf("workload: bad process count in %q: %w", part, err)
		}
		seq = append(seq, sched.JobSpec{Program: strings.TrimSpace(bits[0]), Procs: procs})
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("workload: empty job list")
	}
	return seq, nil
}

// PoissonSequence samples n jobs like RandomSequence but with Poisson
// arrivals at the given mean inter-arrival time — an open-system workload
// rather than the paper's all-at-once "time segment". Arrival times are
// cumulative exponential draws from rng.
func PoissonSequence(rng *rand.Rand, cat *app.Catalog, n int, meanInterArrival float64) []sched.JobSpec {
	seq := RandomSequence(rng, cat, n)
	t := 0.0
	for i := range seq {
		t += rng.ExpFloat64() * meanInterArrival
		seq[i].Submit = t
	}
	return seq
}
