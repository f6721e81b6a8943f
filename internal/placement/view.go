package placement

import "spreadnshare/internal/units"

// NodeView is the read side of a cluster backend: per-node occupancy and
// free capacity, addressed by node id in [0, nodes).
//
// Determinism contract: float readings (AllocBW, FreeBW, FreeMem, FreeIO)
// must be bit-reproducible for identical allocation histories — backends
// sum reservations in a canonical (job-ID) order or track them
// incrementally, never over map iteration. The kernel reads floats
// exclusively through this interface rather than shadow-tracking them, so
// a backend's exact float behavior is preserved end to end.
//
// Free cores are NOT part of the interface: they live in the CoreIndex,
// which the backend keeps in sync after every reserve/release (an
// exclusively-held node indexes as 0 free cores).
type NodeView interface {
	// UsedCores returns the reserved core count.
	UsedCores(id int) int
	// AllocWays returns the CAT-allocated LLC ways.
	AllocWays(id int) units.Ways
	// AllocBW returns the reserved memory bandwidth.
	AllocBW(id int) units.GBps
	// FreeWays returns unallocated LLC ways.
	FreeWays(id int) units.Ways
	// FreeBW returns unreserved memory bandwidth.
	FreeBW(id int) units.GBps
	// FreeMem returns unreserved main memory in GB.
	FreeMem(id int) float64
	// FreeIO returns unreserved file-system bandwidth.
	FreeIO(id int) units.GBps
}

// Reservation is one job's per-node resource take, the unit SimState's
// Reserve and Release apply and undo.
type Reservation struct {
	// Cores reserved on the node. For exclusive reservations the
	// backend takes every free core; Reserve returns the effective
	// count so the caller can release exactly what was taken.
	Cores int
	// Ways is the CAT-partitioned LLC allocation (0 = unmanaged).
	Ways units.Ways
	// BW is the memory-bandwidth reservation (0 = unaccounted).
	BW units.GBps
	// MemGB is the main-memory reservation (0 = unaccounted).
	MemGB float64
	// IOBW is the file-system bandwidth reservation (0 = unaccounted).
	IOBW units.GBps
	// Exclusive dedicates the node: all free cores are taken.
	Exclusive bool
	// Intensive marks the owning job as shared-resource intensive for
	// the TwoSlot policy's one-intensive-job-per-node rule.
	Intensive bool
}
