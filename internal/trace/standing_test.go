package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// goldenStandingQueue is the per-job outcome digest of the replay below,
// captured on the walk-every-failure kernel before Search learned to
// remember failed demands. Remembered failures only skip walks whose
// answer is already known, so the kernel must reproduce it exactly: the
// same jobs tried in the same order, started at the same times on the
// same nodes at the same scale.
const goldenStandingQueue = "ef7cdd72ca303fb6"

// TestStandingQueueReplayDigest replays the htc_queued benchmark shape —
// 600 jobs of at most 8 nodes submitted within six minutes onto 1,024
// nodes under SNS, so a queue stands for the whole replay and nearly
// every placement attempt fails — and checks every job's start, finish,
// scale and node list against the recorded digest.
func TestStandingQueueReplayDigest(t *testing.T) {
	db, node := traceDB(t)
	jobs := Synthesize(42, GenConfig{Jobs: 600, SpanHours: 0.1, MaxNodes: 8})
	MapPrograms(42, jobs, []string{"MG", "BW"}, []string{"HC", "EP"}, 0.9)
	res, err := Simulate(jobs, db, node, DefaultSimConfig(1024, SNS))
	if err != nil {
		t.Fatal(err)
	}
	queued := 0
	for _, j := range res.Jobs {
		if j.Wait() > 0 {
			queued++
		}
	}
	// The digest only pins the standing-queue regime while there is one.
	if queued < len(res.Jobs)/2 {
		t.Fatalf("only %d of %d jobs ever waited: the replay no longer holds a standing queue", queued, len(res.Jobs))
	}
	if got := replayDigest(res); got != goldenStandingQueue {
		t.Errorf("standing-queue replay digest = %s, want %s", got, goldenStandingQueue)
	}
}

// goldenBaseline holds the replay digest of each baseline policy over
// the replay below, captured while every plan that is not the same on
// each node still reserved and released node by node. Reserving such a
// plan as runs of equal cores only batches the same writes, so the
// kernel must reproduce each digest exactly.
var goldenBaseline = map[Policy]string{
	CE:      "ebf15c52d9a18922",
	CS:      "b5f313c8d6e86128",
	TwoSlot: "9dda897d1ed0049a",
}

// TestBaselineReplayDigest replays a fig20_base-shaped input — the
// Trinity-like generator at ratio 0.9 — under CE, CS and TwoSlot, on a
// cluster small enough that a queue forms under each: 3,000 jobs of at
// most 64 nodes in two hours onto 2,048 nodes. It pins the exclusive
// takes, the shared footprints and TwoSlot's uneven "full, ...,
// remainder" plans while they compete for freed capacity.
func TestBaselineReplayDigest(t *testing.T) {
	db, node := traceDB(t)
	jobs := Synthesize(42, GenConfig{Jobs: 3000, SpanHours: 2, MaxNodes: 64})
	MapPrograms(42, jobs, []string{"MG", "BW"}, []string{"HC", "EP"}, 0.9)
	for _, pol := range []Policy{CE, CS, TwoSlot} {
		res, err := Simulate(jobs, db, node, DefaultSimConfig(2048, pol))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		waited := 0
		for _, j := range res.Jobs {
			if j.Wait() > 0 {
				waited++
			}
		}
		// The digest only pins a queued replay while jobs wait.
		if waited == 0 {
			t.Fatalf("%s: no job waited: the replay no longer queues", pol)
		}
		if got := replayDigest(res); got != goldenBaseline[pol] {
			t.Errorf("%s baseline replay digest = %s, want %s", pol, got, goldenBaseline[pol])
		}
	}
}

// replayDigest hashes every job's start, finish, scale and node list in
// trace order.
func replayDigest(res *Result) string {
	h := fnv.New64a()
	word := func(x uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, j := range res.Jobs {
		word(math.Float64bits(j.Start))
		word(math.Float64bits(j.Finish))
		word(uint64(j.Scale))
		word(uint64(len(j.Nodes)))
		for _, n := range j.Nodes {
			word(uint64(n))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenWideSpan is the same digest over the replay below, captured on
// the kernel whose flush still sorted its dirty stack and its pending
// adds with pdqsort and refiled every drained node. The order-aware
// flush only changes how the same (score, id) sequences are produced, so
// it must reproduce it exactly.
const goldenWideSpan = "e73cebba620c8402"

// TestWideSpanReplayDigest replays a quarter of a fig20_sns benchmark
// input — 176 jobs of up to 4,096 nodes over 47.5 hours onto 32,768
// nodes under SNS, never queued — so the node lists it pins were chosen
// by flushes that drain thousands of dirty nodes into a few buckets: the
// regime no other test in the suite reaches.
func TestWideSpanReplayDigest(t *testing.T) {
	db, node := traceDB(t)
	jobs := Synthesize(42, GenConfig{Jobs: 176, SpanHours: 47.5, MaxNodes: 4096})
	MapPrograms(42, jobs, []string{"MG", "BW"}, []string{"HC", "EP"}, 0.9)
	res, err := Simulate(jobs, db, node, DefaultSimConfig(32768, SNS))
	if err != nil {
		t.Fatal(err)
	}
	wide, slots := 0, 0
	for _, j := range res.Jobs {
		if len(j.Nodes) >= 1024 {
			wide++
		}
		slots += len(j.Nodes)
	}
	t.Logf("%d of %d jobs on >= 1,024 nodes, %d node-slots", wide, len(res.Jobs), slots)
	// The digest only pins wide flushes while the replay places wide jobs.
	if wide < 64 {
		t.Fatalf("only %d of %d jobs landed on >= 1,024 nodes: the replay went narrow", wide, len(res.Jobs))
	}
	if got := replayDigest(res); got != goldenWideSpan {
		t.Errorf("wide-span replay digest = %s, want %s", got, goldenWideSpan)
	}
}
