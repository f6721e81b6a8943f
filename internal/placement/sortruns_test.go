package placement

import (
	"math/rand"
	"slices"
	"testing"
)

// checkSortRuns sorts a copy of in with sortRuns and with the comparison
// sort it replaced and fails unless both emit the same sequence. The
// (score, id) order is total and equal keys are identical entries, so
// there is exactly one right answer.
func checkSortRuns(t *testing.T, name string, in []cacheEntry, buf *[]cacheEntry) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortFunc(want, entryLess)
	got := slices.Clone(in)
	sortRuns(got, buf)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: sortRuns left %v, slices.SortFunc %v", name, got, want)
	}
}

// TestSortRunsMatchesSortFunc is the differential test of the run-merge
// sort over the shapes it meets and the ones it must merely survive:
// nothing to do, one run (no buffer touched), a few concatenated runs
// (what prepare and FindDemand hand it), strict interleaving (every run
// two long, the O(n log n) case), exact duplicates, and noise. One
// buffer serves every case in turn, as the cache's does.
func TestSortRunsMatchesSortFunc(t *testing.T) {
	ascending := func(n int, score float64, firstID int) []cacheEntry {
		out := make([]cacheEntry, n)
		for i := range out {
			out[i] = cacheEntry{score: score, id: int32(firstID + i)}
		}
		return out
	}
	var buf []cacheEntry
	for n := 0; n <= 2; n++ {
		checkSortRuns(t, "tiny", ascending(n, 0.5, 0), &buf)
	}
	checkSortRuns(t, "sorted", ascending(1000, 0.25, 0), &buf)
	if buf != nil {
		t.Fatalf("input of one run grew the merge buffer to %d entries", cap(buf))
	}
	checkSortRuns(t, "two descending", []cacheEntry{{0.5, 1}, {0.5, 0}}, &buf)

	reversed := ascending(1000, 0.25, 0)
	slices.Reverse(reversed)
	checkSortRuns(t, "reversed", reversed, &buf)

	// r concatenated runs: spans that landed in one bucket at descending
	// scores, each filed id-ascending.
	for _, r := range []int{2, 17} {
		var runs []cacheEntry
		for k := 0; k < r; k++ {
			runs = append(runs, ascending(100+k, float64(r-k)/32, 7*k)...)
		}
		checkSortRuns(t, "concatenated runs", runs, &buf)
	}

	// Two scores strictly interleaved by id: no run is longer than two.
	interleaved := ascending(1001, 0.75, 0)
	for i := 1; i < len(interleaved); i += 2 {
		interleaved[i].score = 0.5
	}
	checkSortRuns(t, "interleaved", interleaved, &buf)

	duplicates := append(ascending(300, 0.5, 0), ascending(300, 0.5, 0)...)
	checkSortRuns(t, "duplicates", append(duplicates, ascending(300, 0.25, 100)...), &buf)

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		noise := make([]cacheEntry, rng.Intn(2000))
		for i := range noise {
			noise[i] = cacheEntry{score: float64(rng.Intn(8)) / 8, id: int32(rng.Intn(512))}
		}
		checkSortRuns(t, "random", noise, &buf)
	}
}

// FuzzSortRuns decodes raw bytes into entries over a four-score
// alphabet — two bytes each, so ties on score, ties on id and exact
// duplicates are all common — and checks sortRuns against the
// comparison sort.
func FuzzSortRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00})
	f.Add([]byte{0x03, 0x00, 0x02, 0x01, 0x03, 0x02, 0x02, 0x03, 0x03, 0x04})
	f.Add([]byte{0x01, 0x05, 0x01, 0x06, 0x00, 0x01, 0x00, 0x02, 0x01, 0x05, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ents := make([]cacheEntry, len(raw)/2)
		for i := range ents {
			a, b := raw[2*i], raw[2*i+1]
			ents[i] = cacheEntry{score: float64(a&3) / 4, id: int32(a>>2)<<8 | int32(b)}
		}
		var buf []cacheEntry
		checkSortRuns(t, "fuzzed", ents, &buf)
	})
}
