package placement

import (
	"fmt"

	"spreadnshare/internal/units"
)

// Capacity is the raw per-node float capacity state of a SimState — the
// fields whose values depend on the exact order of reservation
// arithmetic. Free cores, LLC ways, and intensive counts are integers,
// so re-deriving them by replaying the surviving reservations is exact;
// free bandwidth, memory, and I/O are float64 accumulators, and a node
// that went through reserve/reserve/release carries rounding residue
// ((peak-a-b)+a differs from peak-b by ULPs) that replaying only the
// surviving reservations cannot reproduce. Those ULPs feed straight
// into the (score, id) placement order, so snapshots persist this
// struct verbatim — encoding/json writes shortest-round-trip floats —
// and a restored state is bit-identical to the live one it copies.
type Capacity struct {
	FreeBW  []units.GBps `json:"free_bw"`
	FreeMem []float64    `json:"free_mem"`
	FreeIO  []units.GBps `json:"free_io"`
}

// ExportCapacity deep-copies the order-sensitive float capacity arrays.
func (s *SimState) ExportCapacity() Capacity {
	c := Capacity{
		FreeBW:  make([]units.GBps, len(s.freeBW)),
		FreeMem: make([]float64, len(s.freeMem)),
		FreeIO:  make([]units.GBps, len(s.freeIO)),
	}
	copy(c.FreeBW, s.freeBW)
	copy(c.FreeMem, s.freeMem)
	copy(c.FreeIO, s.freeIO)
	return c
}

// ImportCapacity overwrites the float capacity arrays with previously
// exported state, discarding whatever reservation replay accumulated,
// and invalidates every node, so no stale score or remembered failure
// survives the overwrite. Integer state (free cores, ways, intensive
// counts) is untouched: replay reconstructs it exactly, and the core
// index depends only on it.
func (s *SimState) ImportCapacity(c Capacity) error {
	n := s.Len()
	if len(c.FreeBW) != n || len(c.FreeMem) != n || len(c.FreeIO) != n {
		return fmt.Errorf("placement: capacity arrays sized %d/%d/%d for a %d-node state",
			len(c.FreeBW), len(c.FreeMem), len(c.FreeIO), n)
	}
	copy(s.freeBW, c.FreeBW)
	copy(s.freeMem, c.FreeMem)
	copy(s.freeIO, c.FreeIO)
	if s.onChange != nil {
		for id := 0; id < n; id++ {
			s.onChange(id)
		}
	}
	return nil
}
