package experiments

import (
	"fmt"

	"spreadnshare/internal/par"
	"spreadnshare/internal/trace"
)

// TraceScalingPrograms and TraceOtherPrograms are the groups trace jobs
// are mapped onto (multi-node capable programs only; Section 6.4 samples
// each group uniformly).
var (
	TraceScalingPrograms = []string{"MG", "CG", "LU", "TS", "BW"}
	TraceOtherPrograms   = []string{"EP", "WC", "NW", "HC", "BFS"}
)

// Fig20Row is one (cluster size, scaling ratio) cell of the large-cluster
// study (Figure 20), extended to all four placement policies: average
// wait and run time per policy, normalized to the CE average turnaround
// of that cell, plus each policy's turnaround improvement over CE.
type Fig20Row struct {
	ClusterNodes int
	ScalingRatio float64
	CEWait       float64
	CERun        float64
	CSWait       float64
	CSRun        float64
	SNSWait      float64
	SNSRun       float64
	TwoSlotWait  float64
	TwoSlotRun   float64
	// *TurnImprovePct is the turnaround (throughput) improvement of the
	// policy over CE in percent (negative = worse than CE).
	CSTurnImprovePct      float64
	SNSTurnImprovePct     float64
	TwoSlotTurnImprovePct float64
}

// Fig20Config controls the replay scale so tests can run a reduced
// version; DefaultFig20Config is the paper's setting.
type Fig20Config struct {
	Seed     int64
	Jobs     int
	Span     float64 // hours
	MaxNodes int
	Sizes    []int
	Ratios   []float64
}

// DefaultFig20Config mirrors Section 6.4: 7,044 jobs over 1900 hours,
// jobs up to 4,096 nodes, clusters of 4K-32K nodes, ratios 0.9 and 0.5.
func DefaultFig20Config() Fig20Config {
	return Fig20Config{
		Seed:     42,
		Jobs:     7044,
		Span:     1900,
		MaxNodes: 4096,
		Sizes:    []int{4096, 8192, 16384, 32768},
		Ratios:   []float64{0.9, 0.5},
	}
}

// fig20Policies is the replay order of every Fig20 cell — also the
// policy order of the flattened parallel grid, so cell index decomposes
// as ((ratio * len(Sizes)) + size) * 4 + policy.
var fig20Policies = []trace.Policy{trace.CE, trace.CS, trace.SNS, trace.TwoSlot}

// Fig20TraceSim reproduces Figure 20 by trace-driven simulation, with the
// CS and TwoSlot baselines replayed alongside the paper's CE/SNS pair.
//
// The grid cells — (ratio, size, policy) triples — are independent
// replays on separate seeded SimStates, so they fan out over the par
// worker pool. The per-ratio traces are synthesized up front (MapPrograms
// mutates the job slice, so it must not race with replays) and shared
// read-only by all that ratio's cells: Simulate copies each Job value it
// schedules. Results land in a flat slice indexed by cell and the rows
// are assembled in grid order afterwards, so the output — and the golden
// placement digests computed from it — is byte-identical to a serial run.
func Fig20TraceSim(env *Env, cfg Fig20Config) ([]Fig20Row, error) {
	jobsByRatio := make([][]trace.Job, len(cfg.Ratios))
	for ri, ratio := range cfg.Ratios {
		jobs := trace.Synthesize(cfg.Seed, trace.GenConfig{
			Jobs: cfg.Jobs, SpanHours: cfg.Span, MaxNodes: cfg.MaxNodes,
		})
		trace.MapPrograms(cfg.Seed, jobs, TraceScalingPrograms, TraceOtherPrograms, ratio)
		jobsByRatio[ri] = jobs
	}

	cells := len(cfg.Ratios) * len(cfg.Sizes) * len(fig20Policies)
	results := make([]*trace.Result, cells)
	if err := par.ForEach(cells, func(i int) error {
		pi := i % len(fig20Policies)
		si := i / len(fig20Policies) % len(cfg.Sizes)
		ri := i / len(fig20Policies) / len(cfg.Sizes)
		p, size, ratio := fig20Policies[pi], cfg.Sizes[si], cfg.Ratios[ri]
		sc := trace.DefaultSimConfig(size, p)
		r, err := trace.Simulate(jobsByRatio[ri], env.DB, env.Spec.Node, sc)
		if err != nil {
			return fmt.Errorf("fig20 %s %d@%.1f: %w", p, size, ratio, err)
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}

	var rows []Fig20Row
	for ri, ratio := range cfg.Ratios {
		for si, size := range cfg.Sizes {
			cell := (ri*len(cfg.Sizes) + si) * len(fig20Policies)
			byPolicy := results[cell : cell+len(fig20Policies)]
			ce := byPolicy[0]
			row := Fig20Row{ClusterNodes: size, ScalingRatio: ratio}
			if ce.AvgTurn > 0 {
				norm := func(r *trace.Result) (wait, run, gain float64) {
					return r.AvgWait / ce.AvgTurn, r.AvgRun / ce.AvgTurn,
						100 * (ce.AvgTurn/r.AvgTurn - 1)
				}
				row.CEWait, row.CERun, _ = norm(ce)
				row.CSWait, row.CSRun, row.CSTurnImprovePct = norm(byPolicy[1])
				row.SNSWait, row.SNSRun, row.SNSTurnImprovePct = norm(byPolicy[2])
				row.TwoSlotWait, row.TwoSlotRun, row.TwoSlotTurnImprovePct = norm(byPolicy[3])
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig20Table renders Figure 20.
func Fig20Table(rows []Fig20Row) [][]string {
	out := [][]string{{
		"cluster-ratio",
		"CE wait", "CE run",
		"CS wait", "CS run", "CS gain %",
		"SNS wait", "SNS run", "SNS gain %",
		"2slot wait", "2slot run", "2slot gain %",
	}}
	for _, r := range rows {
		label := fmt.Sprintf("%dK-%.1f", r.ClusterNodes/1024, r.ScalingRatio)
		out = append(out, []string{label,
			f3(r.CEWait), f3(r.CERun),
			f3(r.CSWait), f3(r.CSRun), f1(r.CSTurnImprovePct),
			f3(r.SNSWait), f3(r.SNSRun), f1(r.SNSTurnImprovePct),
			f3(r.TwoSlotWait), f3(r.TwoSlotRun), f1(r.TwoSlotTurnImprovePct)})
	}
	return out
}
