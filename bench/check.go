package main

import (
	"fmt"
	"sort"

	"spreadnshare/internal/trace"
)

// checkOutcome runs the output checks that need no golden constant over
// one replay's job records and returns how many jobs failed one, with a
// description of the first failure of each kind.
//
//   - every job was placed exactly once, with submit <= start < finish
//     and a non-empty node list without repeats;
//   - a sweep over the result re-derives every node's reserved cores
//     and never finds more than the node has. The records do not carry
//     the kernel's per-node core counts, so each job is charged the
//     least it can have reserved on each of its nodes: all of the node
//     under CE (exclusive), one core under TwoSlot (its plans are
//     uneven), otherwise its processes divided over its nodes, rounded
//     down (SNS and CS plans are uniform). A violation therefore proves
//     oversubscription.
func checkOutcome(jobs []jobOut, nodes, nodeCores int, policy trace.Policy) (failed int, problems []string) {
	seen := map[string]bool{}
	report := func(kind, format string, args ...any) {
		failed++
		if !seen[kind] {
			seen[kind] = true
			problems = append(problems, kind+": "+fmt.Sprintf(format, args...))
		}
	}
	type edge struct {
		t     float64
		job   int
		delta int
	}
	edges := make([]edge, 0, 2*len(jobs))
	for i := range jobs {
		j := &jobs[i]
		switch {
		case len(j.Nodes) == 0:
			report("unplaced", "job %d was never placed", i)
			continue
		case !(j.Submit <= j.Start && j.Start < j.Finish):
			report("order", "job %d has submit %g start %g finish %g", i, j.Submit, j.Start, j.Finish)
			continue
		}
		var charge int
		switch policy {
		case trace.CE:
			charge = nodeCores
		case trace.SNS, trace.CS:
			charge = max(1, j.Procs/len(j.Nodes))
		case trace.TwoSlot:
			charge = 1
		}
		edges = append(edges, edge{j.Start, i, charge}, edge{j.Finish, i, -charge})
	}
	// Releases sort before reservations at one timestamp: the replay
	// completes a job and only then runs the round that reuses its nodes.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return edges[a].delta < edges[b].delta
	})
	used := make([]int, nodes)
	over := map[int]bool{}
	for _, e := range edges {
		for _, id := range jobs[e.job].Nodes {
			if id < 0 || id >= nodes {
				over[e.job] = true
				continue
			}
			used[id] += e.delta
			if used[id] > nodeCores {
				over[e.job] = true
			}
		}
	}
	for job := range over {
		report("oversubscribed", "job %d took a node past its %d cores (or named a node outside the cluster)", job, nodeCores)
	}
	lastJob := make([]int, nodes) // 1 + the last job seen listing the node
	for i := range jobs {
		for _, id := range jobs[i].Nodes {
			if id < 0 || id >= nodes {
				continue
			}
			if lastJob[id] == i+1 {
				report("repeat", "job %d lists node %d twice", i, id)
				break
			}
			lastJob[id] = i + 1
		}
	}
	return failed, problems
}
