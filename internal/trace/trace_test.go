package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
)

func TestSynthesizeShape(t *testing.T) {
	cfg := GenConfig{Jobs: 500, SpanHours: 100, MaxNodes: 1024}
	jobs := Synthesize(1, cfg)
	if len(jobs) != 500 {
		t.Fatalf("got %d jobs, want 500", len(jobs))
	}
	prev := -1.0
	big := 0
	for _, j := range jobs {
		if j.SubmitSec < prev {
			t.Fatal("jobs not sorted by submission time")
		}
		prev = j.SubmitSec
		if j.Nodes < 1 || j.Nodes > 1024 {
			t.Fatalf("job nodes %d out of range", j.Nodes)
		}
		if j.RuntimeSec < 60 || j.RuntimeSec > 24*3600 {
			t.Fatalf("job runtime %g out of range", j.RuntimeSec)
		}
		if j.SubmitSec < 0 || j.SubmitSec > 100*3600 {
			t.Fatalf("submit %g outside span", j.SubmitSec)
		}
		if j.Nodes >= 64 {
			big++
		}
	}
	if big == 0 {
		t.Error("no capability-scale jobs in trace")
	}
	// Determinism.
	again := Synthesize(1, cfg)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatal("same seed produced different trace")
		}
	}
	other := Synthesize(2, cfg)
	same := true
	for i := range jobs {
		if jobs[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestMapProgramsBias(t *testing.T) {
	jobs := Synthesize(1, GenConfig{Jobs: 2000, SpanHours: 10, MaxNodes: 64})
	scaling := []string{"MG", "BW"}
	other := []string{"HC", "EP"}
	MapPrograms(5, jobs, scaling, other, 0.9)
	fromScaling := 0
	for _, j := range jobs {
		switch j.Program {
		case "MG", "BW":
			fromScaling++
		case "HC", "EP":
		default:
			t.Fatalf("unexpected program %q", j.Program)
		}
	}
	frac := float64(fromScaling) / float64(len(jobs))
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("scaling fraction %.3f, want ~0.9", frac)
	}
	MapPrograms(5, jobs, scaling, nil, 0.1)
	for _, j := range jobs {
		if j.Program != "MG" && j.Program != "BW" {
			t.Fatal("empty other-group should force scaling programs")
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	jobs := Synthesize(3, GenConfig{Jobs: 50, SpanHours: 10, MaxNodes: 128})
	MapPrograms(3, jobs, []string{"MG"}, []string{"HC"}, 0.5)
	var buf bytes.Buffer
	if err := Write(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(jobs) {
		t.Fatalf("parsed %d jobs, want %d", len(parsed), len(jobs))
	}
	for i := range jobs {
		if parsed[i].ID != jobs[i].ID || parsed[i].Nodes != jobs[i].Nodes ||
			parsed[i].Program != jobs[i].Program {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, parsed[i], jobs[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1,2,3",
		"x,0,4,100,MG",
		"1,x,4,100,MG",
		"1,0,x,100,MG",
		"1,0,4,x,MG",
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
	// Headers, comments and blank lines are skipped.
	jobs, err := Parse(strings.NewReader("id,submit_sec,nodes,runtime_sec,program\n# c\n\n1,0,4,100,MG\n"))
	if err != nil || len(jobs) != 1 {
		t.Errorf("Parse with header = %v, %v", jobs, err)
	}
}

func traceDB(t *testing.T) (*profiler.DB, hw.NodeSpec) {
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

func TestSimulateCEAndSNS(t *testing.T) {
	db, node := traceDB(t)
	jobs := Synthesize(11, GenConfig{Jobs: 300, SpanHours: 48, MaxNodes: 32})
	MapPrograms(11, jobs, []string{"MG", "BW"}, []string{"HC", "EP"}, 0.9)

	ce, err := Simulate(jobs, db, node, DefaultSimConfig(256, CE))
	if err != nil {
		t.Fatalf("CE: %v", err)
	}
	sns, err := Simulate(jobs, db, node, DefaultSimConfig(256, SNS))
	if err != nil {
		t.Fatalf("SNS: %v", err)
	}
	if len(ce.Jobs) != 300 || len(sns.Jobs) != 300 {
		t.Fatal("job count wrong")
	}
	for _, j := range ce.Jobs {
		if j.Scale != 1 || j.NodesUsed != j.Trace.Nodes {
			t.Fatalf("CE job %d ran at scale %d on %d nodes", j.Trace.ID, j.Scale, j.NodesUsed)
		}
		if diff := j.Run() - j.Trace.RuntimeSec; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("CE job %d run %g, want trace runtime %g", j.Trace.ID, j.Run(), j.Trace.RuntimeSec)
		}
	}
	spread := 0
	for _, j := range sns.Jobs {
		if j.Scale > 1 {
			spread++
			if j.NodesUsed != j.Scale*j.Trace.Nodes {
				t.Fatalf("SNS job %d scale %d but %d nodes (trace %d)",
					j.Trace.ID, j.Scale, j.NodesUsed, j.Trace.Nodes)
			}
			if j.Run() >= j.Trace.RuntimeSec {
				t.Fatalf("SNS spread job %d not faster: %g vs %g",
					j.Trace.ID, j.Run(), j.Trace.RuntimeSec)
			}
		}
	}
	if spread == 0 {
		t.Error("SNS never spread any job in a 90% scaling mix")
	}
	// On an amply-sized cluster, SNS run-time gains must improve
	// average turnaround (the paper's large-cluster result).
	if sns.AvgTurn >= ce.AvgTurn {
		t.Errorf("SNS avg turnaround %.0f s not below CE %.0f s", sns.AvgTurn, ce.AvgTurn)
	}
	if sns.Throughput <= ce.Throughput {
		t.Errorf("SNS throughput %.3g not above CE %.3g", sns.Throughput, ce.Throughput)
	}
}

func TestSimulateValidation(t *testing.T) {
	db, node := traceDB(t)
	jobs := []Job{{ID: 0, Nodes: 100, RuntimeSec: 100, Program: "MG"}}
	if _, err := Simulate(jobs, db, node, DefaultSimConfig(10, CE)); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := Simulate(jobs, db, node, SimConfig{ClusterNodes: 0, Policy: CE, CoresPerJobNode: 16}); err == nil {
		t.Error("zero-node cluster accepted")
	}
	bad := []Job{{ID: 0, Nodes: 1, RuntimeSec: 100, Program: "UNPROFILED"}}
	if _, err := Simulate(bad, db, node, DefaultSimConfig(10, SNS)); err == nil {
		t.Error("unprofiled program accepted under SNS")
	}
	cfg := DefaultSimConfig(10, CE)
	cfg.CoresPerJobNode = 99
	if _, err := Simulate(bad, db, node, cfg); err == nil {
		t.Error("CoresPerJobNode beyond node size accepted")
	}
}

func TestSimulateConservation(t *testing.T) {
	// After a full replay, every node must be back to fully free.
	db, node := traceDB(t)
	jobs := Synthesize(13, GenConfig{Jobs: 100, SpanHours: 24, MaxNodes: 16})
	MapPrograms(13, jobs, []string{"MG"}, []string{"HC"}, 0.5)
	for _, pol := range []Policy{CE, SNS} {
		res, err := Simulate(jobs, db, node, DefaultSimConfig(64, pol))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for _, j := range res.Jobs {
			if j.Start < j.Trace.SubmitSec {
				t.Fatalf("%v: job started before submit", pol)
			}
			if j.Finish <= j.Start {
				t.Fatalf("%v: non-positive runtime", pol)
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if CE.String() != "CE" || SNS.String() != "SNS" {
		t.Error("policy names wrong")
	}
}

func TestSummarize(t *testing.T) {
	jobs := []Job{
		{Nodes: 1, RuntimeSec: 3600, SubmitSec: 0},
		{Nodes: 4, RuntimeSec: 1800, SubmitSec: 7200},
		{Nodes: 3, RuntimeSec: 600, SubmitSec: 3600},
	}
	s := Summarize(jobs)
	if s.Jobs != 3 {
		t.Errorf("Jobs = %d", s.Jobs)
	}
	if s.NodeMax != 4 || s.NodeP50 != 3 {
		t.Errorf("node stats %d/%d", s.NodeP50, s.NodeMax)
	}
	// 1*1 + 4*0.5 + 3*(1/6) = 3.5 node-hours.
	if s.TotalNodeHours < 3.49 || s.TotalNodeHours > 3.51 {
		t.Errorf("TotalNodeHours = %g, want 3.5", s.TotalNodeHours)
	}
	// 1 and 4 are powers of two, 3 is not.
	if s.PowerOfTwoFrac < 0.66 || s.PowerOfTwoFrac > 0.67 {
		t.Errorf("PowerOfTwoFrac = %g", s.PowerOfTwoFrac)
	}
	if s.SpanHours != 2 {
		t.Errorf("SpanHours = %g, want 2", s.SpanHours)
	}
	if !strings.Contains(s.String(), "jobs: 3") {
		t.Error("String() wrong")
	}
	if z := Summarize(nil); z.Jobs != 0 {
		t.Error("empty summary wrong")
	}
}

func TestSynthesizedTraceShape(t *testing.T) {
	jobs := Synthesize(42, DefaultGenConfig())
	s := Summarize(jobs)
	if s.Jobs != 7044 {
		t.Errorf("Jobs = %d, want 7044", s.Jobs)
	}
	if s.PowerOfTwoFrac < 0.6 {
		t.Errorf("power-of-two fraction %.2f, want HPC-typical >= 0.6", s.PowerOfTwoFrac)
	}
	if s.NodeMax > 4096 {
		t.Errorf("NodeMax = %d, want filtered to 4096", s.NodeMax)
	}
	if s.RuntimeP50 < 300 || s.RuntimeP50 > 4000 {
		t.Errorf("median runtime %.0f s, want tens of minutes", s.RuntimeP50)
	}
}

func TestSimulatePercentiles(t *testing.T) {
	db, node := traceDB(t)
	jobs := Synthesize(17, GenConfig{Jobs: 200, SpanHours: 10, MaxNodes: 32})
	MapPrograms(17, jobs, []string{"MG"}, []string{"HC"}, 0.5)
	// A tight 48-node cluster forces queueing.
	res, err := Simulate(jobs, db, node, DefaultSimConfig(48, CE))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.WaitP50 <= res.WaitP90 && res.WaitP90 <= res.WaitP99) {
		t.Errorf("percentiles not ordered: %.0f %.0f %.0f",
			res.WaitP50, res.WaitP90, res.WaitP99)
	}
	if res.WaitP99 <= 0 {
		t.Error("no queueing on a deliberately tight cluster")
	}
}

func TestParseSWF(t *testing.T) {
	swf := `; SWF header comment
; MaxNodes: 128
1	0	5	3600	64	-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
2	120	2	1800	16	-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
3	240	0	-1	32	-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
4	360	9	600	-1	-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
5	500	1	60	8	-1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
`
	jobs, err := ParseSWF(strings.NewReader(swf), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 3 (runtime -1) and 4 (procs -1) are skipped.
	if len(jobs) != 3 {
		t.Fatalf("parsed %d jobs, want 3", len(jobs))
	}
	if jobs[0].ID != 1 || jobs[0].Nodes != 4 || jobs[0].RuntimeSec != 3600 {
		t.Errorf("job 1 = %+v (64 procs / 16 per node = 4 nodes)", jobs[0])
	}
	if jobs[1].Nodes != 1 || jobs[2].Nodes != 1 {
		t.Errorf("small jobs = %+v, %+v, want 1 node each", jobs[1], jobs[2])
	}
	if jobs[1].SubmitSec != 120 {
		t.Errorf("submit = %g, want 120", jobs[1].SubmitSec)
	}
	// procsPerNode 0: each processor is a node.
	jobs, err = ParseSWF(strings.NewReader(swf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Nodes != 64 {
		t.Errorf("raw nodes = %d, want 64", jobs[0].Nodes)
	}
}

func TestParseSWFErrors(t *testing.T) {
	for _, bad := range []string{
		"1 2 3",
		"x 0 0 100 4",
		"1 x 0 100 4",
		"1 0 0 x 4",
		"1 0 0 100 x",
		"1 NaN 0 100 4",
		"1 Inf 0 100 4",
		"1 -Inf 0 100 4",
		"1 0 0 NaN 4",
		"1 0 0 +Inf 4",
		"1 0 0 -Inf 4",
	} {
		if _, err := ParseSWF(strings.NewReader(bad), 16); err == nil {
			t.Errorf("ParseSWF(%q) succeeded, want error", bad)
		} else if !strings.Contains(err.Error(), "swf line 1:") {
			t.Errorf("ParseSWF(%q) error %q names no line", bad, err)
		}
	}
}

// TestSimulateRejectsNonFiniteTimes hands the replay jobs whose submit
// or run time no clock can schedule. Each must be refused before the
// clock starts: a NaN submit would start and finish a job at NaN, a NaN
// or +Inf run time would hold its node forever, and a -Inf submit would
// panic in the event queue.
func TestSimulateRejectsNonFiniteTimes(t *testing.T) {
	db, node := traceDB(t)
	for _, bad := range []Job{
		{SubmitSec: math.NaN(), RuntimeSec: 100},
		{SubmitSec: math.Inf(1), RuntimeSec: 100},
		{SubmitSec: math.Inf(-1), RuntimeSec: 100},
		{SubmitSec: -1, RuntimeSec: 100},
		{RuntimeSec: math.NaN()},
		{RuntimeSec: math.Inf(1)},
		{RuntimeSec: math.Inf(-1)},
	} {
		bad.ID, bad.Nodes, bad.Program = 1, 1, "MG"
		jobs := []Job{{ID: 0, Nodes: 1, RuntimeSec: 50, Program: "MG"}, bad}
		if _, err := Simulate(jobs, db, node, DefaultSimConfig(4, CE)); err == nil || !strings.Contains(err.Error(), "job 1") {
			t.Errorf("Simulate with submit %g, run time %g: error %v, want one naming job 1", bad.SubmitSec, bad.RuntimeSec, err)
		}
	}
}

func TestSWFReplayEndToEnd(t *testing.T) {
	// A tiny SWF trace replayed through the large-cluster simulator.
	swf := `1 0 0 600 32 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
2 60 0 1200 64 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
3 120 0 300 16 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1
`
	jobs, err := ParseSWF(strings.NewReader(swf), 16)
	if err != nil {
		t.Fatal(err)
	}
	MapPrograms(1, jobs, []string{"MG"}, []string{"HC"}, 0.5)
	db, node := traceDB(t)
	res, err := Simulate(jobs, db, node, DefaultSimConfig(16, SNS))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(res.Jobs))
	}
}
