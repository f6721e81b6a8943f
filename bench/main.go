// Command bench is the repository's benchmark: six named workloads,
// each run for a fixed time from a seed, with output checks, a small
// set of end-to-end metrics measured untraced, and a per-layer cost
// account from a separate traced run. See README.md beside this file.
//
//	bench --workload fig20_sns --seed 42 --seconds 15 --trace 0
//	bench --workload fig20_sns --seed 42 --seconds 15 --trace 1
//	bench selfcheck
//	bench list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repResult is what one repetition of a workload (set-up, one timed
// pass, the output checks) measured.
type repResult struct {
	// SetupCPU is the repetition's set-up in CPU seconds: environment
	// build, input generation or ingest, and core/server construction
	// where the workload constructs one itself.
	SetupCPU float64
	// PassCPU and PassWall are the timed pass in process CPU seconds
	// (all threads) and in wall seconds.
	PassCPU, PassWall float64
	// RefCPU is the reference computation's CPU seconds, measured just
	// before the repetition.
	RefCPU float64
	// OpsMS holds the wall latency of each HTTP operation of a daemon
	// pass; the batch workloads leave it empty.
	OpsMS []float64
	// PeakRSSMB is the resident-set high-water mark of the pass, AllocMB
	// the heap bytes it allocated.
	PeakRSSMB, AllocMB float64
	// AvgTurn is the pass's average job turnaround in simulated
	// seconds.
	AvgTurn float64
	// Attempted and Failed count operations (jobs for the batch
	// workloads) and those that failed or failed an output check.
	Attempted, Failed int
}

// layerRep is what one traced repetition measured, by per-layer metric
// name. The run reports each name's median over repetitions.
type layerRep map[string]float64

// runCtx carries one run's arguments and accumulated state.
type runCtx struct {
	seed int64
	// scale divides every workload's size and number of inputs; 1 in
	// real runs, 50 in the smoke test.
	scale int
	// out receives the human-readable rows.
	out *os.File
	// Traced-run state.
	epoch   time.Time
	spans   [][]span // one list per tracer, merged when written
	prof    *cpuProfile
	extra   layerRep // metrics measured once per run, not per repetition
	problem []string // output-check failures, in order found
}

func (c *runCtx) fail(format string, args ...any) {
	c.problem = append(c.problem, fmt.Sprintf(format, args...))
}

// subSeed is the seed of the run's input number i: a run generates
// several inputs, all of them fixed by the run's seed.
func (c *runCtx) subSeed(i int) int64 { return c.seed*1000 + int64(i) }

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	// inputs is how many distinct inputs an untraced run generates from
	// its seed and replays in every round: enough that the run's
	// figures are an average over inputs and the next seed's are close
	// to them. 1 where the input does not depend on the seed.
	inputs int
	// rep runs one untraced repetition on input number `input`.
	rep func(c *runCtx, input int) (repResult, error)
	// traced runs traced repetition number rep, on input number rep,
	// and returns its per-layer metrics.
	traced func(c *runCtx, rep int) (layerRep, repResult, error)
	// once, when set, runs before the traced repetitions, inside the
	// run's time budget, for metrics measured a single time per run.
	once func(c *runCtx) error
}

func workloads() []workload {
	return []workload{
		replayWorkload("fig20_sns"),
		replayWorkload("fig20_base"),
		replayWorkload("htc_queued"),
		testbedWorkload(),
		daemonWorkload("daemon_submit"),
		daemonWorkload("daemon_mixed"),
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "selfcheck":
			os.Exit(selfcheck(os.Args[2:]))
		case "list":
			for _, w := range workloads() {
				fmt.Printf("%-14s %s\n", w.name, w.why)
			}
			return
		}
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name (see `bench list`)")
	seed := fs.Int64("seed", 42, "input seed")
	seconds := fs.Float64("seconds", 15, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	// ExitOnError: Parse exits 2 on a bad flag itself.
	_ = fs.Parse(os.Args[1:])
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; `bench list` names them\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *traced != 0, 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload measures one workload for about `seconds` seconds and
// prints the human-readable rows to out. scale divides the workload's
// size (1 in real runs). The returned result is what main prints as the
// final JSON line.
func runWorkload(w workload, seed int64, seconds float64, traced bool, scale int, out *os.File) (*result, error) {
	c := &runCtx{seed: seed, scale: max(1, scale), out: out, epoch: time.Now(), prof: &cpuProfile{}, extra: layerRep{}}
	printStamp(out, w.name, seed, seconds, traced)
	spinBefore := spinMS()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()

	res := &result{Metrics: map[string]metric{}}
	var values map[string]float64
	var reps []repResult
	var err error
	if traced {
		values, reps, err = runTraced(c, w, start, budget)
	} else {
		values, reps, err = runUntraced(c, w, start, budget)
	}
	if err != nil {
		return nil, err
	}
	spinAfter := spinMS()

	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	res.Failed += len(c.problem)
	res.Attempted = max(1, res.Attempted)
	res.Correct = res.Failed == 0

	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
		values["machine.spin_before_ms"] = spinBefore
		values["machine.spin_after_ms"] = spinAfter
		path := fmt.Sprintf("bench/out/trace-%s.json", w.name)
		spans := mergeSpans(c.spans...)
		if err := writeSpans(path, w.name, seed, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans       %d written to %s\n", len(spans), path)
	}
	for _, def := range defs {
		res.Metrics[def.name] = metric{Value: values[def.name], Unit: def.unit}
	}

	fmt.Fprintf(out, "reps        %d in %.1f s\n", len(reps), time.Since(start).Seconds())
	fmt.Fprintf(out, "machine     spin_ms before %.2f after %.2f disturbed=%v\n",
		spinBefore, spinAfter, disturbed(spinBefore, spinAfter))
	for _, def := range defs {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", def.name, res.Metrics[def.name].Value, def.unit)
	}
	fmt.Fprintf(out, "operations  attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, p := range c.problem {
		fmt.Fprintf(out, "CHECK FAILED %s\n", p)
	}
	return res, nil
}

// runUntraced makes whole rounds, each one repetition on every input of
// the run in turn with a reference measurement before it, until the
// next round would end past the budget (and at least one), and reduces
// them to the end-to-end metrics.
func runUntraced(c *runCtx, w workload, start time.Time, budget time.Duration) (map[string]float64, []repResult, error) {
	byInput := make([][]repResult, max(1, w.inputs/c.scale))
	var reps []repResult
	var lastRound time.Duration
	for round := 0; round == 0 || time.Since(start)+lastRound <= budget; round++ {
		began := time.Now()
		for input := range byInput {
			runtime.GC()
			ref := refCPU()
			rr, err := w.rep(c, input)
			if err != nil {
				return nil, nil, err
			}
			rr.RefCPU = ref
			byInput[input] = append(byInput[input], rr)
			reps = append(reps, rr)
			fmt.Fprintf(c.out, "rep %-7s ref %.4f cpu-s  setup %.4f cpu-s  pass %.4f cpu-s %.4f wall-s  avg_turn %.2f  rss %.1f MB  alloc %.1f MB",
				fmt.Sprintf("%d.%d", round, input), rr.RefCPU, rr.SetupCPU, rr.PassCPU, rr.PassWall, rr.AvgTurn, rr.PeakRSSMB, rr.AllocMB)
			if len(rr.OpsMS) > 0 {
				fmt.Fprintf(c.out, "  ops %d  p50 %.4f ms  p99 %.4f ms", len(rr.OpsMS), percentile(rr.OpsMS, 0.50), percentile(rr.OpsMS, 0.99))
			}
			fmt.Fprintln(c.out)
		}
		lastRound = time.Since(began)
	}
	return endToEnd(byInput), reps, nil
}

// endToEnd reduces a run's repetitions, grouped by input, to the
// end-to-end metrics. Every input has the same number of repetitions
// (rounds are whole), so the run reads as the average input of its
// seed.
//
// The two timings are quotients by the reference measured beside them,
// scaled to seconds by refNominalS: a pass's CPU seconds as all passes'
// CPU time over all references', set-up (the same work whatever the
// input) as the median of each repetition's quotient. The other
// quantities are the mean over inputs of the median over rounds.
func endToEnd(byInput [][]repResult) map[string]float64 {
	field := func(reps []repResult, get func(repResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = get(r)
		}
		return xs
	}
	var setup, turn, rss, alloc []float64
	var pass, ref float64
	for _, reps := range byInput {
		for _, r := range reps {
			setup = append(setup, r.SetupCPU/r.RefCPU)
			pass += r.PassCPU
			ref += r.RefCPU
		}
		turn = append(turn, median(field(reps, func(r repResult) float64 { return r.AvgTurn })))
		rss = append(rss, median(field(reps, func(r repResult) float64 { return r.PeakRSSMB })))
		alloc = append(alloc, median(field(reps, func(r repResult) float64 { return r.AllocMB })))
	}
	return map[string]float64{
		"setup_s":     refNominalS * median(setup),
		"cpu_s":       refNominalS * pass / ref,
		"avg_turn_s":  mean(turn),
		"peak_rss_mb": mean(rss),
		"alloc_mb":    mean(alloc),
	}
}

// runTraced makes traced repetitions, each on another input, until the
// budget is spent, and reduces them to the per-layer metrics: the
// median over repetitions, except what is measured once per run.
func runTraced(c *runCtx, w workload, start time.Time, budget time.Duration) (map[string]float64, []repResult, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	if w.once != nil {
		if err := w.once(c); err != nil {
			return nil, nil, err
		}
	}
	var reps []repResult
	var layers []layerRep
	// Another repetition starts only while at least half of the previous
	// one's duration is left, so a run of long traced repetitions does
	// not overshoot its budget by a whole one.
	var last time.Duration
	for rep := 0; rep == 0 || time.Since(start)+last/2 < budget; rep++ {
		began := time.Now()
		runtime.GC()
		lr, rr, err := w.traced(c, rep)
		if err != nil {
			return nil, nil, err
		}
		layers = append(layers, lr)
		reps = append(reps, rr)
		last = time.Since(began)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	values := c.extra
	values["runtime.cpu_s"] = cpuSeconds() - cpu0
	values["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	values["runtime.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	values["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	values["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	values["machine.sleep_late_p99_ms"] = sleepLateP99MS()
	for k, v := range c.prof.percentages() {
		values[k] = v
	}
	for _, def := range perLayerMetrics {
		if _, ok := values[def.name]; ok {
			continue
		}
		var xs []float64
		for _, lr := range layers {
			if x, ok := lr[def.name]; ok {
				xs = append(xs, x)
			}
		}
		values[def.name] = median(xs)
	}
	return values, reps, nil
}

// printStamp prints the hardware stamp every row set carries.
func printStamp(out *os.File, name string, seed int64, seconds float64, traced bool) {
	fmt.Fprintf(out, "workload    %s seed=%d seconds=%g traced=%v\n", name, seed, seconds, traced)
	fmt.Fprintf(out, "hardware    commit=%s nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// commit is the checked-out revision, or "unknown" outside a git
// checkout (the driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
