package placement

import (
	"encoding/json"
	"testing"

	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
)

// TestCapacityRoundTrip drives a live state through a reserve/
// reserve/release history — leaving float rounding residue on node 0 —
// and checks that a replay-rebuilt state only matches bit-for-bit after
// ImportCapacity installs the exported floats (including through a JSON
// encode/decode, the snapshot wire format).
func TestCapacityRoundTrip(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	live := NewSimState(spec, 4)
	a := Reservation{Cores: 4, Ways: 2, BW: 0.1, MemGB: 0.1, IOBW: 0.1}
	b := Reservation{Cores: 2, Ways: 1, BW: 0.2, MemGB: 0.2, IOBW: 0.2}
	live.Reserve(0, a)
	live.Reserve(0, b)
	live.Release(0, a) // (peak-a-b)+a: residue vs peak-b

	replayed := NewSimState(spec, 4)
	replayed.Reserve(0, b) // what snapshot replay of the surviving job does
	if live.FreeBW(0) == replayed.FreeBW(0) &&
		live.FreeMem(0) == replayed.FreeMem(0) &&
		live.FreeIO(0) == replayed.FreeIO(0) {
		t.Skip("this spec/reservation pair left no residue; pick amounts that do")
	}

	raw, err := json.Marshal(live.ExportCapacity())
	if err != nil {
		t.Fatal(err)
	}
	var c Capacity
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if err := replayed.ImportCapacity(c); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 4; id++ {
		if live.FreeBW(id) != replayed.FreeBW(id) ||
			live.FreeMem(id) != replayed.FreeMem(id) ||
			live.FreeIO(id) != replayed.FreeIO(id) {
			t.Fatalf("node %d floats differ after import: live (%v %v %v) restored (%v %v %v)",
				id, live.FreeBW(id), live.FreeMem(id), live.FreeIO(id),
				replayed.FreeBW(id), replayed.FreeMem(id), replayed.FreeIO(id))
		}
	}

	short := NewSimState(spec, 2)
	if err := short.ImportCapacity(c); err == nil {
		t.Fatal("ImportCapacity accepted arrays sized for a different cluster")
	}
}

// TestImportCapacityCountsAsRelease: an import may raise any node's
// free capacity, so a search that remembered a failure on the old floats
// must walk again afterwards instead of answering from the table.
func TestImportCapacityCountsAsRelease(t *testing.T) {
	st, s := newTestSearch(4)
	idle := st.ExportCapacity()
	for id := 0; id < 4; id++ {
		reserve(st, id, 2, 0, 100, 0)
	}
	d := core.Demand{Cores: 4, BW: 30}
	if s.FindDemand(4, d) != nil {
		t.Fatal("30 GB/s fit on nodes with 18 free")
	}
	if err := st.ImportCapacity(idle); err != nil {
		t.Fatal(err)
	}
	if got := s.FindDemand(4, d); len(got) != 4 {
		t.Errorf("FindDemand after import = %v, want all 4 nodes", got)
	}
}
