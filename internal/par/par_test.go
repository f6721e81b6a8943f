package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7} {
		prev := SetWorkers(w)
		hits := make([]atomic.Int64, 100)
		if err := ForEach(len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, got)
			}
		}
		SetWorkers(prev)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(-3, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachLowestIndexError pins the deterministic error contract:
// whatever the interleaving, the reported error is the lowest-index one,
// and every index still runs.
func TestForEachLowestIndexError(t *testing.T) {
	for _, w := range []int{1, 4} {
		prev := SetWorkers(w)
		var ran atomic.Int64
		err := ForEach(64, func(i int) error {
			ran.Add(1)
			if i%10 == 7 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Fatalf("workers=%d: got %v, want cell 7 failed", w, err)
		}
		if ran.Load() != 64 {
			t.Fatalf("workers=%d: ran %d of 64 indices", w, ran.Load())
		}
		SetWorkers(prev)
	}
}

func TestSetWorkersRoundTrip(t *testing.T) {
	orig := SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	if prev := SetWorkers(0); prev != 3 {
		t.Fatalf("SetWorkers(0) returned %d, want 3", prev)
	}
	if got := Workers(); got < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", got)
	}
	SetWorkers(orig)
}

// TestForEachMergeOrderIndependence is the determinism pattern in
// miniature: disjoint slot writes merged in index order give the same
// bytes serial and parallel.
func TestForEachMergeOrderIndependence(t *testing.T) {
	run := func(w int) string {
		prev := SetWorkers(w)
		defer SetWorkers(prev)
		out := make([]string, 50)
		if err := ForEach(len(out), func(i int) error {
			out[i] = fmt.Sprintf("cell-%d;", i*i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var s string
		for _, c := range out {
			s += c
		}
		return s
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Fatalf("merged output differs between serial and parallel runs")
	}
}

// TestForEachFansOut is the parallel runner's fan-out gate, with no
// clock and no CPU count in it: at SetWorkers(4) four cells rendezvous —
// none may return until all four are in flight — so ForEach completes
// only if it really runs four cells at once. The passing path waits on
// the rendezvous alone; the timeout exists solely to turn the hang a
// narrower pool would cause into a failure.
func TestForEachFansOut(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	var inFlight atomic.Int64
	all := make(chan struct{})
	err := ForEach(4, func(i int) error {
		if inFlight.Add(1) == 4 {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("cell %d: %d of 4 cells in flight", i, inFlight.Load())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
