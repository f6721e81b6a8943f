// Package placement is the policy-agnostic placement kernel shared by
// Uberun (internal/sched) and the large-cluster trace simulator
// (internal/trace). It owns the pieces the paper's evaluation needs at
// every scale:
//
//   - the Policy enum naming the four compared strategies,
//   - a NodeView capacity interface over any cluster backend,
//   - an indexed free-core structure replacing O(nodes) linear scans,
//   - the placement searches (CE, CS, SNS demand→scale, TwoSlot),
//   - the age-limited priority queue with bounded backfill depth.
//
// Both layers run the *same* policy code — the methodological point of
// Figure 20: the strategy that wins on the testbed is exactly the one
// replayed on 4K–32K-node clusters.
package placement

import (
	"fmt"
	"strings"
)

// Policy selects the placement strategy. The exhaustive lint pass keeps
// every switch over it covering all four strategies.
//
//sns:enum
type Policy int

const (
	// CE is Compact-n-Exclusive: minimum node footprint, dedicated
	// nodes — the policy of SLURM/LSF/PBS and all top-10 supercomputers.
	CE Policy = iota
	// CS is Compact-n-Share: node sharing by free cores, preferring the
	// lowest scale factor currently possible.
	CS
	// SNS is Spread-n-Share: profile-guided automatic scaling plus
	// resource-compatible co-location with CAT way partitioning and
	// bandwidth accounting.
	SNS
	// TwoSlot is the related-work baseline (ClavisMO / Poncos style):
	// static half-node slots, at most one shared-resource-intensive
	// job per node, no scaling and no cache partitioning.
	TwoSlot
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case CE:
		return "CE"
	case CS:
		return "CS"
	case SNS:
		return "SNS"
	case TwoSlot:
		return "TwoSlot"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy reads a policy name (case-insensitive).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToUpper(s) {
	case "CE":
		return CE, nil
	case "CS":
		return CS, nil
	case "SNS":
		return SNS, nil
	case "TWOSLOT":
		return TwoSlot, nil
	}
	return CE, fmt.Errorf("placement: unknown policy %q", s)
}
