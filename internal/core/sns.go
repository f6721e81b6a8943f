// Package core implements the Spread-n-Share demand model of Section 4.3:
// estimating a job's per-node resource demand (cores, LLC ways, memory
// bandwidth) from its profiled IPC-LLC and BW-LLC curves under a slowdown
// threshold alpha. The node search the demand feeds (Section 4.4) lives
// in internal/placement.
package core

import (
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
	"spreadnshare/internal/units"
)

// DefaultBeta is the extra weight the node-selection score gives to LLC
// occupancy (the paper uses 2: cache interference dominates within a
// node).
const DefaultBeta = 2.0

// Demand is a job's estimated per-node resource requirement at one scale
// factor — the (c, w, b) triple of Figure 10.
type Demand struct {
	// Cores per node (the profile's placement).
	Cores int
	// Ways is the minimum LLC allocation achieving the tolerable IPC.
	Ways units.Ways
	// BW is the estimated per-node memory bandwidth at that
	// allocation.
	BW units.GBps
	// MemGB is the per-node main-memory requirement.
	MemGB float64
	// IOBW is the estimated per-node file-system bandwidth, from the
	// profile's measured I/O (independent of the cache allocation).
	IOBW units.GBps
}

// EstimateDemand walks the profiled curves: starting from the IPC at full
// way allocation (F-IPC), the tolerable IPC is alpha*F-IPC; the demanded
// ways w is the least allocation whose profiled IPC reaches it (bounded
// below by the hardware minimum), and the BW-LLC curve read at w gives the
// bandwidth estimate.
func EstimateDemand(sp *profiler.ScaleProfile, alpha float64, spec hw.NodeSpec) Demand {
	full := sp.FullWays()
	if full < 1 {
		return Demand{Cores: sp.CoresPerNode, Ways: spec.MinWaysPerJob}
	}
	if !(alpha > 0 && alpha <= 1) { // NaN included
		alpha = 1
	}
	target := alpha * sp.IPCAt(full)
	ways := units.WaysOf(full)
	for w := spec.MinWaysPerJob; w <= units.WaysOf(full); w++ {
		if sp.IPCAt(w.Int()) >= target {
			ways = w
			break
		}
	}
	if ways < spec.MinWaysPerJob {
		ways = spec.MinWaysPerJob
	}
	return Demand{
		Cores: sp.CoresPerNode,
		Ways:  ways,
		BW:    units.GBpsOf(sp.BWAt(ways.Int())),
		IOBW:  units.GBpsOf(sp.IOPerNode),
	}
}
