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
	h := fnv.New64a()
	word := func(x uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	queued := 0
	for _, j := range res.Jobs {
		if j.Wait() > 0 {
			queued++
		}
		word(math.Float64bits(j.Start))
		word(math.Float64bits(j.Finish))
		word(uint64(j.Scale))
		word(uint64(len(j.Nodes)))
		for _, n := range j.Nodes {
			word(uint64(n))
		}
	}
	// The digest only pins the standing-queue regime while there is one.
	if queued < len(res.Jobs)/2 {
		t.Fatalf("only %d of %d jobs ever waited: the replay no longer holds a standing queue", queued, len(res.Jobs))
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenStandingQueue {
		t.Errorf("standing-queue replay digest = %s, want %s", got, goldenStandingQueue)
	}
}
