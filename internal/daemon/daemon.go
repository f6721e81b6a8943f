// Package daemon implements the per-node component of Uberun's
// architecture (Figure 9): the actuator that turns scheduler decisions
// into node-local actions. Per Section 5.1, that means Linux
// cpuset-style core binding, CAT way-mask programming, and
// framework-specific launch configuration — MPI jobs get explicit core
// binding flags, Spark workers get a core budget, TensorFlow processes
// get a thread count, and replicated sequential programs get per-instance
// taskset pinning.
package daemon

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"spreadnshare/internal/app"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/units"
)

// CoreSet is an ordered list of core ids bound to one job.
type CoreSet []int

// String renders the set in Linux cpuset list syntax ("0-3,14-17"). A
// daemon's own bindings are ascending; any other order is sorted in a copy.
func (c CoreSet) String() string {
	if len(c) == 0 {
		return ""
	}
	s := []int(c)
	if !sort.IntsAreSorted(s) {
		s = append([]int(nil), c...)
		sort.Ints(s)
	}
	var arr [64]byte
	buf := arr[:0]
	start, prev := s[0], s[0]
	flush := func() {
		if len(buf) > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(start), 10)
		if start != prev {
			buf = append(buf, '-')
			buf = strconv.AppendInt(buf, int64(prev), 10)
		}
	}
	for _, id := range s[1:] {
		if id == prev+1 {
			prev = id
			continue
		}
		flush()
		start, prev = id, id
	}
	flush()
	return string(buf)
}

// LaunchPlan is the concrete actuation of one job on one node.
type LaunchPlan struct {
	JobID   int
	Program string
	// Cores is the cpuset binding.
	Cores CoreSet
	// WayMask is the CAT capacity bitmask (0 when cache is unmanaged).
	WayMask hw.WayMask
	// BWCapGB is the MBA throttle in GB/s (0 when uncapped).
	BWCapGB float64
	// prog is the program model Command renders the launch line from.
	prog *app.Model
}

// Command renders the framework-specific node-local launch line. It is
// built when asked for, from the plan's own binding: a simulated run
// issues thousands of plans and reads the line of none of them.
func (p LaunchPlan) Command() string {
	if p.prog == nil {
		return ""
	}
	return launchCommand(p.prog, p.Cores)
}

// Daemon is one node's actuator state.
type Daemon struct {
	NodeID int
	spec   hw.NodeSpec
	ways   *hw.WayAllocator
	bound  []binding // one per actuated job; a node holds a handful
	busy   []bool    // core occupancy
}

// binding is the core set one job holds on the node.
type binding struct {
	job   int
	cores CoreSet
}

// find returns the index of jobID's binding, or -1.
func (d *Daemon) find(jobID int) int {
	for i := range d.bound {
		if d.bound[i].job == jobID {
			return i
		}
	}
	return -1
}

// New creates an idle daemon for a node.
func New(nodeID int, spec hw.NodeSpec) *Daemon {
	return &Daemon{
		NodeID: nodeID,
		spec:   spec,
		ways:   hw.NewWayAllocator(spec),
		busy:   make([]bool, spec.Cores),
	}
}

// FreeCores returns unbound cores.
func (d *Daemon) FreeCores() int {
	n := 0
	for _, b := range d.busy {
		if !b {
			n++
		}
	}
	return n
}

// Bound returns the core set held by a job, if any.
func (d *Daemon) Bound(jobID int) (CoreSet, bool) {
	if i := d.find(jobID); i >= 0 {
		return d.bound[i].cores, true
	}
	return nil, false
}

// pickCores selects `n` free cores balanced across the two sockets (cores
// [0, half) are socket 0, [half, Cores) socket 1), matching how the paper
// runs 16-process jobs as 8 per socket. An odd core goes to socket 1, or
// to socket 0 when socket 1 has more cores free; what a socket cannot
// supply spills to the other. The set comes out ascending.
func (d *Daemon) pickCores(n int) (CoreSet, error) {
	half := d.spec.Cores.Int() / 2
	free0, free1 := 0, 0
	for id, b := range d.busy {
		if b {
			continue
		}
		if id < half {
			free0++
		} else {
			free1++
		}
	}
	if n > free0+free1 {
		return nil, fmt.Errorf("daemon: node %d: %d cores requested, %d free",
			d.NodeID, n, free0+free1)
	}
	take0 := n / 2
	take1 := n - take0
	if free1 > free0 {
		take0, take1 = take1, take0
	}
	if take0 > free0 {
		take1 += take0 - free0
		take0 = free0
	}
	if take1 > free1 {
		take0 += take1 - free1
		take1 = free1
	}
	picked := make(CoreSet, 0, n)
	for id := 0; take0 > 0; id++ {
		if !d.busy[id] {
			picked = append(picked, id)
			take0--
		}
	}
	for id := half; take1 > 0; id++ {
		if !d.busy[id] {
			picked = append(picked, id)
			take1--
		}
	}
	return picked, nil
}

// Actuate binds cores and programs the CAT mask for one job's share of
// this node; the returned plan renders the launch command on demand. Pass
// ways 0 for unmanaged cache and bwCap 0 for no MBA throttle.
func (d *Daemon) Actuate(jobID int, prog *app.Model, cores, ways int, bwCap float64) (LaunchPlan, error) {
	if d.find(jobID) >= 0 {
		return LaunchPlan{}, fmt.Errorf("daemon: node %d: job %d already actuated", d.NodeID, jobID)
	}
	if cores <= 0 {
		return LaunchPlan{}, fmt.Errorf("daemon: node %d: job %d requested %d cores", d.NodeID, jobID, cores)
	}
	set, err := d.pickCores(cores)
	if err != nil {
		return LaunchPlan{}, err
	}
	var mask hw.WayMask
	if ways > 0 {
		w := units.WaysOf(ways)
		mask, err = d.ways.Allocate(jobID, w)
		if err != nil && d.ways.FreeWays() >= w {
			// Fragmented: repack the existing partitions (a cheap
			// CLOS-mask rewrite) and retry.
			d.ways.Defragment()
			mask, err = d.ways.Allocate(jobID, w)
		}
		if err != nil {
			return LaunchPlan{}, err
		}
	}
	for _, id := range set {
		d.busy[id] = true
	}
	d.bound = append(d.bound, binding{job: jobID, cores: set})
	return LaunchPlan{
		JobID:   jobID,
		Program: prog.Name,
		Cores:   set,
		WayMask: mask,
		BWCapGB: bwCap,
		prog:    prog,
	}, nil
}

// Release unbinds a job's cores and returns its LLC partition.
func (d *Daemon) Release(jobID int) error {
	i := d.find(jobID)
	if i < 0 {
		return fmt.Errorf("daemon: node %d: job %d not actuated", d.NodeID, jobID)
	}
	for _, id := range d.bound[i].cores {
		d.busy[id] = false
	}
	last := len(d.bound) - 1
	d.bound[i] = d.bound[last]
	d.bound[last] = binding{}
	d.bound = d.bound[:last]
	// The partition exists only for CAT-managed jobs.
	if _, held := d.ways.Mask(jobID); held {
		return d.ways.Release(jobID)
	}
	return nil
}

// launchCommand renders the framework-specific node-local launch line the
// paper's prototype issues (Section 5.1).
func launchCommand(prog *app.Model, set CoreSet) string {
	n := len(set)
	list := set.String()
	switch prog.Framework {
	case app.MPI:
		// MPI exposes explicit binding interfaces.
		return fmt.Sprintf("mpirun -np %d --bind-to cpu-list:ordered --cpu-set %s ./%s",
			n, list, strings.ToLower(prog.Name))
	case app.Spark:
		// Spark standalone mode with a restricted worker core budget.
		return fmt.Sprintf("SPARK_WORKER_CORES=%d taskset -c %s start-worker.sh # %s",
			n, list, prog.Name)
	case app.TensorFlow:
		// TensorFlow needs the per-node core count set in application
		// code; the daemon exports it and pins the process.
		return fmt.Sprintf("TF_NUM_INTRAOP_THREADS=%d taskset -c %s python %s.py",
			n, list, strings.ToLower(prog.Name))
	case app.Replicated:
		// Independent sequential instances, one per core.
		return fmt.Sprintf("for c in %s; do taskset -c $c ./%s & done",
			list, strings.ToLower(prog.Name))
	}
	return fmt.Sprintf("taskset -c %s ./%s", list, strings.ToLower(prog.Name))
}
