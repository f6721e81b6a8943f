package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json selfcheck reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheck measures the same commit twice and holds the benchmark to
// its own bounds, the way the driver that accepts it does: two sets of
// `runs` untraced runs per workload, seeds 42 onwards, run_seconds
// each, each in a process of its own. For every end-to-end metric of
// every workload it prints each set's spread (the distance between the
// quartiles over the median; with fewer than four runs, the range) and
// how much worse the second set's median is than the first's, all
// beside the metric's bound, and exits non-zero when any of the three
// exceeds it or any run fails an output check. Runs whose
// bracketing spins disagreed are marked DISTURBED.
func selfcheck(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload per set, each with another seed")
	_ = fs.Parse(args)

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfcheck: %v (run from the repository root)\n", err)
		return 2
	}
	var cfg benchmarkJSON
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "selfcheck: BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "selfcheck: %v\n", err)
		return 2
	}

	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	bad := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range cfg.Workloads {
			values[set][w.Name] = map[string][]float64{}
			for r := 0; r < *runs; r++ {
				seed := 42 + int64(r)
				res, out, err := runChild(self, w.Name, seed, cfg.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d: %v\n%s", set+1, w.Name, seed, err, out)
					return 1
				}
				note := ""
				if strings.Contains(out, "disturbed=true") {
					note = " DISTURBED"
				}
				if !res.Correct || res.Failed != 0 {
					note += " FAILED CHECKS"
					bad++
				}
				fmt.Printf("set %d %-14s seed %-4d attempted %-7d failed %d%s\n", set+1, w.Name, seed, res.Attempted, res.Failed, note)
				for k, m := range res.Metrics {
					values[set][w.Name][k] = append(values[set][w.Name][k], m.Value)
				}
			}
		}
	}

	fmt.Printf("\n%-14s %-12s %14s %14s %9s %9s %9s %7s\n", "workload", "metric", "median set 1", "median set 2", "spread 1", "spread 2", "worse by", "bound")
	for _, w := range cfg.Workloads {
		for _, m := range cfg.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := relSpread(a), relSpread(b)
			verdict := ""
			if worse > m.Bound || sa > m.Bound || sb > m.Bound {
				verdict = "  MISS"
				bad++
			}
			fmt.Printf("%-14s %-12s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n", w.Name, m.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\nselfcheck: %d problem(s)\n", bad)
		return 1
	}
	fmt.Println("\nselfcheck: every metric of every workload within its bound")
	return 0
}

// relSpread is the distance between the first and third quartile of xs
// as a share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method); below
// four values it is the range over the median.
func relSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	if n < 4 {
		return (s[n-1] - s[0]) / med
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / med
}

// runChild runs one untraced benchmark run in a process of its own (so
// peak RSS is that run's alone) and parses the JSON on its last line.
func runChild(self, workload string, seed int64, seconds int) (*result, string, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, out.String(), err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, out.String(), fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, out.String(), nil
}
