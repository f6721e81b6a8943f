// Command uberun runs a batch-job workload through the Uberun scheduler
// on the simulated cluster and reports per-job and aggregate metrics.
//
// Usage:
//
//	uberun -policy SNS -nodes 8 -seed 7 -njobs 20
//	uberun -policy CE -jobs "MG:16,HC:16,TS:16"
//	uberun -policy SNS -profiles profiles.json -jobs "MG:16,BW:28"
//
// With -jobs the workload is an explicit comma-separated list of
// program:procs pairs; otherwise a random sequence is generated the way
// the paper's Section 6.2 evaluation does. Profiles are computed on the
// fly unless -profiles points at a database written by kunafa.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"math/rand"

	"spreadnshare/internal/app"
	"spreadnshare/internal/exec"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/report"
	"spreadnshare/internal/sched"
	"spreadnshare/internal/stats"
	"spreadnshare/internal/workload"
)

func main() {
	policyFlag := flag.String("policy", "SNS", "scheduling policy: CE, CS, TwoSlot, or SNS")
	nodes := flag.Int("nodes", 8, "cluster size in nodes")
	seed := flag.Int64("seed", 1, "random-sequence seed")
	njobs := flag.Int("njobs", 20, "random-sequence length")
	jobsFlag := flag.String("jobs", "", "explicit workload, e.g. \"MG:16,HC:16,TS:16\"")
	scriptFlag := flag.String("script", "", "batch script with #UBERUN directives")
	alpha := flag.Float64("alpha", 0.9, "slowdown threshold")
	profilePath := flag.String("profiles", "", "profile database JSON (computed if empty)")
	showPlans := flag.Bool("show-plans", false, "print per-node actuation plans (cpuset, CAT mask, launch command)")
	jsonOut := flag.Bool("json", false, "emit the run as JSON instead of a table")
	gantt := flag.Bool("gantt", false, "render a per-node ASCII timeline of the schedule")
	flag.Parse()

	var policy sched.Policy
	switch strings.ToUpper(*policyFlag) {
	case "CE":
		policy = sched.CE
	case "CS":
		policy = sched.CS
	case "SNS":
		policy = sched.SNS
	case "TWOSLOT":
		policy = sched.TwoSlot
	default:
		fatal(fmt.Errorf("unknown policy %q", *policyFlag))
	}

	spec := hw.DefaultClusterSpec()
	spec.Nodes = *nodes
	cat, err := app.NewCatalog(spec.Node)
	if err != nil {
		fatal(err)
	}

	var seq []sched.JobSpec
	switch {
	case *scriptFlag != "":
		f, err := os.Open(*scriptFlag)
		if err != nil {
			fatal(err)
		}
		seq, err = workload.ParseScript(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *jobsFlag != "":
		seq, err = workload.ParseJobList(*jobsFlag)
		if err != nil {
			fatal(err)
		}
	default:
		seq = workload.RandomSequence(rand.New(rand.NewSource(*seed)), cat, *njobs)
	}
	for i := range seq {
		if seq[i].Alpha == 0 {
			seq[i].Alpha = *alpha
		}
	}

	var db *profiler.DB
	if *profilePath != "" {
		db, err = profiler.Load(*profilePath)
		if err != nil {
			fatal(err)
		}
	} else {
		db = profiler.NewDB()
		if policy == sched.SNS {
			k := profiler.New(spec)
			procsSeen := map[int]bool{}
			for _, js := range seq {
				procsSeen[js.Procs] = true
			}
			for procs := range procsSeen {
				var names []string
				for _, js := range seq {
					if js.Procs == procs {
						names = append(names, js.Program)
					}
				}
				if err := k.ProfileAll(cat, names, procs, db); err != nil {
					fatal(err)
				}
			}
		}
	}

	s, err := sched.New(spec, cat, db, sched.DefaultConfig(policy))
	if err != nil {
		fatal(err)
	}
	for _, js := range seq {
		if err := s.Submit(js); err != nil {
			fatal(err)
		}
	}
	done, err := s.Run()
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := report.FromJobs(policy.String(), *nodes, done).WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("policy %s on %d nodes, %d jobs\n\n", policy, *nodes, len(done))
	fmt.Printf("%-4s %-5s %6s %2s %7s %9s %9s %10s\n",
		"id", "prog", "procs", "n", "ways", "wait(s)", "run(s)", "turn(s)")
	var turns []float64
	for _, j := range done {
		turns = append(turns, j.Turnaround())
		fmt.Printf("%-4d %-5s %6d %2d %7d %9.1f %9.1f %10.1f\n",
			j.ID, j.Prog.Name, j.Procs, j.SpanNodes(), j.Ways,
			j.WaitTime(), j.RunTime(), j.Turnaround())
	}
	fmt.Printf("\nmean turnaround %.1f s, throughput %.6f jobs/s, makespan %.1f s\n",
		stats.Mean(turns), stats.Throughput(turns), maxFinish(done))

	if *showPlans {
		fmt.Println("\nactuation plans:")
		for _, p := range s.LaunchPlans() {
			fmt.Printf("job %-3d %-4s cores %-12s mask %s  %s\n",
				p.JobID, p.Program, p.Cores, p.WayMask, p.Command())
		}
	}
	if *gantt {
		fmt.Println("\nschedule timeline:")
		fmt.Print(report.Gantt(done, *nodes, 100))
	}
}

func maxFinish(jobs []*exec.Job) float64 {
	m := 0.0
	for _, j := range jobs {
		if j.Finish > m {
			m = j.Finish
		}
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uberun:", err)
	os.Exit(1)
}
