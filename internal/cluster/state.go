// Package cluster tracks the scheduler-visible resource state of every
// node: which jobs hold how many cores, CAT-allocated LLC ways, and
// estimated memory bandwidth. It provides the node grouping and scoring
// primitives the SNS placement search uses (Section 4.4 of the paper).
package cluster

import (
	"fmt"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

// Alloc records one job's reservation on one node.
type Alloc struct {
	JobID int
	// Cores reserved on this node.
	Cores int
	// Ways is the CAT-partitioned LLC allocation; 0 means the job
	// runs with unmanaged cache sharing (CE/CS policies).
	Ways units.Ways
	// BW is the estimated memory-bandwidth reservation
	// (0 when the policy does not account bandwidth).
	BW units.GBps
	// MemGB is the main-memory reservation (0 = unaccounted). Unlike
	// cache and bandwidth, memory capacity is a hard per-node limit:
	// oversubscribing it means swapping, which no scheduler risks.
	MemGB float64
	// IOBW is the estimated parallel-file-system bandwidth
	// reservation (0 = unaccounted) — the third resource
	// dimension the paper's extensible algorithm accommodates.
	IOBW units.GBps
	// Exclusive marks the node as dedicated to this job.
	Exclusive bool
}

// Node is the bookkeeping state of one compute node.
//
// Allocations are kept in a job-ID-sorted slice and the integer
// aggregates (cores, ways, exclusivity) are cached incrementally, so
// the placement search's feasibility probes — called once per node per
// scale factor per scheduling pass — are O(1) field reads instead of
// map iterations. Float aggregates are summed over the sorted slice on
// demand: the reservations per node are few, and summing in job-ID
// order keeps the readings bit-reproducible across runs.
type Node struct {
	ID   int
	spec hw.NodeSpec

	allocs    []Alloc // sorted by JobID
	usedCores int
	allocWays units.Ways
	exclusive int // reservations with Exclusive set
}

// find returns the index of job id in allocs, or -1.
func (n *Node) find(id int) int {
	for i := range n.allocs {
		if n.allocs[i].JobID == id {
			return i
		}
	}
	return -1
}

// insert adds a into allocs, keeping job-ID order.
func (n *Node) insert(a Alloc) {
	i := len(n.allocs)
	for i > 0 && n.allocs[i-1].JobID > a.JobID {
		i--
	}
	n.allocs = append(n.allocs, Alloc{})
	copy(n.allocs[i+1:], n.allocs[i:])
	n.allocs[i] = a
	n.usedCores += a.Cores
	n.allocWays += a.Ways
	if a.Exclusive {
		n.exclusive++
	}
}

// removeAt deletes the i-th reservation with a shift.
func (n *Node) removeAt(i int) {
	a := n.allocs[i]
	n.usedCores -= a.Cores
	n.allocWays -= a.Ways
	if a.Exclusive {
		n.exclusive--
	}
	copy(n.allocs[i:], n.allocs[i+1:])
	n.allocs = n.allocs[:len(n.allocs)-1]
}

// UsedCores returns the number of reserved cores.
func (n *Node) UsedCores() int { return n.usedCores }

// FreeCores returns cores available for new reservations; an exclusively
// held node has none.
func (n *Node) FreeCores() int {
	if n.exclusive > 0 {
		return 0
	}
	return n.spec.Cores.Int() - n.usedCores
}

// AllocWays returns the total CAT-allocated ways.
func (n *Node) AllocWays() units.Ways { return n.allocWays }

// FreeWays returns unallocated LLC ways.
func (n *Node) FreeWays() units.Ways { return n.spec.LLCWays - n.allocWays }

// AllocMem returns the total reserved memory in GB.
func (n *Node) AllocMem() float64 {
	m := 0.0
	for i := range n.allocs {
		m += n.allocs[i].MemGB
	}
	return m
}

// FreeMem returns unreserved main memory.
func (n *Node) FreeMem() float64 { return n.spec.MemoryGB - n.AllocMem() }

// AllocBW returns the total reserved memory bandwidth.
func (n *Node) AllocBW() units.GBps {
	b := units.GBps(0)
	for i := range n.allocs {
		b += n.allocs[i].BW
	}
	return b
}

// FreeBW returns unreserved bandwidth against the node's peak.
func (n *Node) FreeBW() units.GBps { return n.spec.PeakBandwidth - n.AllocBW() }

// AllocIO returns the total reserved file-system bandwidth.
func (n *Node) AllocIO() units.GBps {
	b := units.GBps(0)
	for i := range n.allocs {
		b += n.allocs[i].IOBW
	}
	return b
}

// FreeIO returns unreserved file-system bandwidth.
func (n *Node) FreeIO() units.GBps { return n.spec.IOBandwidth - n.AllocIO() }

// Idle reports whether no job holds any resource on the node.
func (n *Node) Idle() bool { return len(n.allocs) == 0 }

// Exclusive reports whether some job holds the node exclusively.
func (n *Node) Exclusive() bool { return n.exclusive > 0 }

// Jobs returns the ids of jobs with reservations on this node, sorted.
func (n *Node) Jobs() []int {
	ids := make([]int, len(n.allocs))
	for i := range n.allocs {
		ids[i] = n.allocs[i].JobID
	}
	return ids
}

// Alloc returns job id's reservation on this node, if any.
func (n *Node) Alloc(id int) (Alloc, bool) {
	if i := n.find(id); i >= 0 {
		return n.allocs[i], true
	}
	return Alloc{}, false
}

// State is the resource bookkeeping of a whole cluster.
type State struct {
	Spec  hw.ClusterSpec
	Nodes []*Node
}

// New creates an all-idle cluster.
func New(spec hw.ClusterSpec) (*State, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := &State{Spec: spec, Nodes: make([]*Node, spec.Nodes)}
	for i := range s.Nodes {
		s.Nodes[i] = &Node{ID: i, spec: spec.Node}
	}
	return s, nil
}

// NodeAlloc names a node and the cores and memory a job takes there.
type NodeAlloc struct {
	Node  int
	Cores int
	MemGB float64
}

// Allocate reserves resources for a job across nodes: per-node core
// counts, plus uniform ways/bandwidth/exclusivity. It validates every
// node before touching any, so a failed allocation leaves the state
// unchanged.
func (s *State) Allocate(jobID int, nodes []NodeAlloc, ways units.Ways, bw units.GBps, exclusive bool) error {
	return s.AllocateIO(jobID, nodes, ways, bw, 0, exclusive)
}

// AllocateIO is Allocate with an additional per-node file-system
// bandwidth reservation.
func (s *State) AllocateIO(jobID int, nodes []NodeAlloc, ways units.Ways, bw, ioBW units.GBps, exclusive bool) error {
	if len(nodes) == 0 {
		return fmt.Errorf("cluster: job %d: empty placement", jobID)
	}
	for k, na := range nodes {
		if na.Node < 0 || na.Node >= len(s.Nodes) {
			return fmt.Errorf("cluster: job %d: node %d out of range", jobID, na.Node)
		}
		for _, prev := range nodes[:k] {
			if prev.Node == na.Node {
				return fmt.Errorf("cluster: job %d: node %d listed twice", jobID, na.Node)
			}
		}
		n := s.Nodes[na.Node]
		if n.find(jobID) >= 0 {
			return fmt.Errorf("cluster: job %d already on node %d", jobID, na.Node)
		}
		if na.Cores <= 0 || na.Cores > n.FreeCores() {
			return fmt.Errorf("cluster: job %d: %d cores unavailable on node %d (%d free)",
				jobID, na.Cores, na.Node, n.FreeCores())
		}
		if exclusive && !n.Idle() {
			return fmt.Errorf("cluster: job %d: node %d not idle for exclusive use", jobID, na.Node)
		}
		if ways > 0 && ways > n.FreeWays() {
			return fmt.Errorf("cluster: job %d: %d ways unavailable on node %d (%d free)",
				jobID, ways, na.Node, n.FreeWays())
		}
		if bw > 0 && bw > n.FreeBW()+1e-9 {
			return fmt.Errorf("cluster: job %d: %.1f GB/s unavailable on node %d (%.1f free)",
				jobID, bw, na.Node, n.FreeBW())
		}
		if na.MemGB > 0 && na.MemGB > n.FreeMem()+1e-9 {
			return fmt.Errorf("cluster: job %d: %.1f GB memory unavailable on node %d (%.1f free)",
				jobID, na.MemGB, na.Node, n.FreeMem())
		}
		if ioBW > 0 && ioBW > n.FreeIO()+1e-9 {
			return fmt.Errorf("cluster: job %d: %.2f GB/s I/O unavailable on node %d (%.2f free)",
				jobID, ioBW, na.Node, n.FreeIO())
		}
	}
	for _, na := range nodes {
		s.Nodes[na.Node].insert(Alloc{
			JobID: jobID, Cores: na.Cores, Ways: ways, BW: bw, MemGB: na.MemGB,
			IOBW: ioBW, Exclusive: exclusive,
		})
	}
	return nil
}

// Release removes all of a job's reservations and returns the node ids it
// occupied.
func (s *State) Release(jobID int) []int {
	var freed []int
	for _, n := range s.Nodes {
		if i := n.find(jobID); i >= 0 {
			n.removeAt(i)
			freed = append(freed, n.ID)
		}
	}
	return freed
}

// IdleNodes returns the ids of completely idle nodes.
func (s *State) IdleNodes() []int {
	var ids []int
	for _, n := range s.Nodes {
		if n.Idle() {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// TotalUsedCores returns the cluster-wide reserved core count.
func (s *State) TotalUsedCores() int {
	c := 0
	for _, n := range s.Nodes {
		c += n.usedCores
	}
	return c
}
