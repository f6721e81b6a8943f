// Package app provides analytic performance models of the 12 cluster
// workloads the paper evaluates (NPB MG/CG/EP/LU, Graph500 BFS, HiBench
// WC/TS/NW, TensorFlow GAN/RNN, SPEC CPU HC/BW). Real binaries cannot run
// here, so each program is replaced by a model exposing exactly the
// quantities the paper's profiler measures — IPC and memory bandwidth as a
// function of allocated LLC ways, LLC miss rate, communication time versus
// node footprint — calibrated against the paper's published measurements
// (Figures 2-7, 12, 13).
//
// The model is deliberately mechanistic rather than a lookup table: IPC
// follows a saturating Michaelis-Menten curve in effective cache ways,
// memory traffic follows the miss-rate curve, latency-bound codes degrade
// with node load, and communication grows with the node footprint. The
// scheduler and profiler never see these internals; they observe only
// simulated PMU readings, exactly as Uberun observes hardware PMUs.
package app

import (
	"fmt"
	"math"

	"spreadnshare/internal/hw"
)

// Framework identifies the parallel framework a program runs on. Uberun
// schedules across frameworks; the framework determines scale flexibility
// (MPI wants power-of-two process splits, TensorFlow examples are single
// node) and launch semantics.
type Framework int

const (
	// MPI programs are multi-node with explicit core binding.
	MPI Framework = iota
	// Spark programs run in standalone mode with worker-core limits.
	Spark
	// TensorFlow example programs are multi-threaded but single-node.
	TensorFlow
	// Replicated marks a sequential program submitted as many
	// independent instances (the paper's HC and BW usage).
	Replicated
)

// String returns the framework name.
func (f Framework) String() string {
	switch f {
	case MPI:
		return "MPI"
	case Spark:
		return "Spark"
	case TensorFlow:
		return "TensorFlow"
	case Replicated:
		return "Replicated"
	}
	return fmt.Sprintf("Framework(%d)", int(f))
}

// RefConcurrency is the per-node process count at which all cache curves
// are defined: the paper profiles every program with 16 processes on one
// node (8 per socket). A job running c processes on a node with w
// allocated ways sees "effective ways" w*RefConcurrency/c, because the
// same partition is shared by fewer processes.
const RefConcurrency = 16

// Model is the analytic performance model of one program.
//
// Calibration fields (IPCMax, BWPerCoreRef, ...) are expressed at the
// reference point: RefConcurrency processes on one node with all LLC ways,
// i.e. effective ways = the node's full way count.
type Model struct {
	// Name is the short program name used throughout the paper (MG,
	// CG, TS, ...).
	Name string
	// Suite is the benchmark suite the program comes from.
	Suite string
	// Framework the program runs on.
	Framework Framework
	// MultiNode reports whether the program can span nodes at all
	// (the TensorFlow examples cannot).
	MultiNode bool
	// PowerOf2 reports whether process counts must split in powers of
	// two across nodes (MPI collectives).
	PowerOf2 bool

	// IPCMax is the per-core IPC at full LLC allocation with no other
	// core active (zero memory-latency contention).
	IPCMax float64
	// FloorFrac is the fraction of IPCMax retained as the cache
	// allocation approaches zero; cache-insensitive programs have
	// floors above 0.9.
	FloorFrac float64
	// LeastWays90 is the calibration target: the smallest way count
	// giving 90% of full-way performance at reference concurrency
	// (Figure 12). The curve parameter H is derived from it.
	LeastWays90 float64
	// EffWaysCap bounds the benefit from extra cache per process when
	// a job spreads out; programs whose per-process working set far
	// exceeds the LLC (NW, BFS) stop benefiting at the cap. Zero
	// means "no cap".
	EffWaysCap float64
	// LatSens is the sensitivity of IPC to memory-subsystem load:
	// IPC is divided by (1 + LatSens*load) where load in [0,1] is the
	// fraction of the node's other cores that are active. It models
	// latency-bound degradation (queueing at the memory controller)
	// that bandwidth accounting alone misses — CG and BFS's random
	// accesses make them highly sensitive.
	LatSens float64

	// BWPerCoreRef is the demanded memory bandwidth per core (GB/s) at
	// the reference point.
	BWPerCoreRef float64
	// MissPctRef is the LLC miss rate (%) at the reference point.
	MissPctRef float64
	// MissFloorFrac is the fraction of the zero-way miss rate that
	// remains with infinite cache (compulsory misses).
	MissFloorFrac float64
	// WHalf is the way count over which the capacity-miss component
	// halves.
	WHalf float64

	// IOBWPerCore is the demanded parallel-file-system bandwidth per
	// core in GB/s (HDFS reads and shuffle spills for the Spark
	// programs; ~0 for the compute codes).
	IOBWPerCore float64

	// CommFrac is communication time on 2 nodes as a fraction of the
	// 1-node solo execution time.
	CommFrac float64
	// CommGrowth scales communication growth with footprint:
	// Tcomm(n) = CommFrac*T1*(1 + CommGrowth*(log2(n)-1)).
	CommGrowth float64
	// SpreadMissBoost multiplies the miss rate when the job spans more
	// than one node (BFS's remote-edge traversal).
	SpreadMissBoost float64
	// SpreadWorkBoost multiplies compute work when spanning nodes
	// (extra instruction flows for inter-node communication).
	SpreadWorkBoost float64

	// PhaseAmp is the relative amplitude of the program's bandwidth
	// phases: demand alternates between (1+PhaseAmp) and (1-PhaseAmp)
	// times the average. The paper identifies such phase behavior as
	// a cause of profile inaccuracy and slowdown-threshold violations
	// (Section 6.2); the engine only simulates phases when explicitly
	// enabled.
	PhaseAmp float64
	// PhasePeriodSec is the length of one phase.
	PhasePeriodSec float64

	// TargetSoloSec is the exclusive 1-node run time with
	// RefConcurrency processes; per-process work is derived from it.
	TargetSoloSec float64
	// WorkGI is giga-instructions per process, derived from
	// TargetSoloSec during catalog construction.
	WorkGI float64
	// MemGBPerProc is resident memory per process.
	MemGBPerProc float64

	// h is the Michaelis-Menten half-saturation constant, derived
	// from LeastWays90 at catalog construction.
	h float64
	// refWays is the node's full way count the curves normalize to.
	refWays float64
	// missRef is missShape(refWays), the denominator of every MissRel;
	// Calibrate stores it and zero means not calibrated.
	missRef float64
}

// mm is the raw saturation curve w/(w+h).
func (m *Model) mm(w float64) float64 {
	if w <= 0 {
		return 0
	}
	return w / (w + m.h)
}

// EffectiveWays converts a per-node allocation of ways shared by c
// processes into the equivalent way count at reference concurrency, which
// is the x-axis of all calibration curves. Spreading a job out (smaller c)
// raises its effective ways; EffWaysCap bounds the benefit.
func (m *Model) EffectiveWays(ways float64, coresOnNode int) float64 {
	if coresOnNode <= 0 {
		return 0
	}
	w := ways * RefConcurrency / float64(coresOnNode)
	if m.EffWaysCap > 0 && w > m.EffWaysCap {
		w = m.EffWaysCap
	}
	return w
}

// IPCRel is the IPC relative to the full-way reference as a function of
// effective ways: FloorFrac + (1-FloorFrac) * mm(w)/mm(refWays).
func (m *Model) IPCRel(effWays float64) float64 {
	if effWays <= 0 {
		return m.FloorFrac
	}
	return m.FloorFrac + (1-m.FloorFrac)*m.mm(effWays)/m.mm(m.refWays)
}

// LoadFactor is the latency-contention divisor for a node where active
// cores (including this job's own) out of total are busy.
func (m *Model) LoadFactor(activeCores, totalCores int) float64 {
	if totalCores <= 1 {
		return 1
	}
	load := float64(activeCores-1) / float64(totalCores-1)
	if load < 0 {
		load = 0
	} else if load > 1 {
		load = 1
	}
	return 1 + m.LatSens*load
}

// IPC returns per-core IPC given effective ways and node occupancy.
func (m *Model) IPC(effWays float64, activeCores, totalCores int) float64 {
	return m.IPCFrom(m.IPCRel(effWays), m.LoadFactor(activeCores, totalCores))
}

// IPCFrom is IPC from an IPCRel reading and a LoadFactor.
func (m *Model) IPCFrom(ipcRel, load float64) float64 {
	return m.IPCMax * ipcRel / load
}

// missShape is the unnormalized miss-rate curve: a compulsory floor plus
// a capacity component that halves every WHalf ways.
func (m *Model) missShape(w float64) float64 {
	return m.MissFloorFrac + (1-m.MissFloorFrac)*math.Pow(2, -w/m.WHalf)
}

// MissRel is the LLC miss rate relative to the full-way reference. It
// panics on a model Calibrate has not seen, whose reference is unset.
func (m *Model) MissRel(effWays float64, spread bool) float64 {
	if m.missRef == 0 {
		panic("app: MissRel on an uncalibrated Model")
	}
	rel := m.missShape(effWays) / m.missRef
	if spread && m.SpreadMissBoost > 0 {
		rel *= m.SpreadMissBoost
	}
	return rel
}

// Curves evaluates both cache curves at one point: IPCRel(effWays) and
// MissRel(effWays, spread). A caller that needs several readings at the
// same point derives them with IPCFrom, BWDemandFrom and MissPctFrom
// instead of evaluating the curves once per reading.
func (m *Model) Curves(effWays float64, spread bool) (ipcRel, missRel float64) {
	return m.IPCRel(effWays), m.MissRel(effWays, spread)
}

// MissPct returns the LLC miss rate in percent.
func (m *Model) MissPct(effWays float64, spread bool) float64 {
	return m.MissPctFrom(m.MissRel(effWays, spread))
}

// MissPctFrom is MissPct from a MissRel reading.
func (m *Model) MissPctFrom(missRel float64) float64 {
	p := m.MissPctRef * missRel
	if p > 95 {
		p = 95
	}
	return p
}

// BWDemandPerCore returns the memory bandwidth (GB/s) one core of this
// program would consume if unthrottled, given its cache allocation and
// node occupancy. Demand tracks execution speed (slower code issues fewer
// misses per second) and the miss rate (more cache, less traffic).
func (m *Model) BWDemandPerCore(effWays float64, activeCores, totalCores int, spread bool) float64 {
	ipcRel, missRel := m.Curves(effWays, spread)
	return m.BWDemandFrom(ipcRel, missRel, m.LoadFactor(activeCores, totalCores))
}

// BWDemandFrom is BWDemandPerCore from a Curves reading and a LoadFactor.
func (m *Model) BWDemandFrom(ipcRel, missRel, load float64) float64 {
	return m.BWPerCoreRef * ipcRel / load * missRel
}

// CommSeconds returns the communication time of a run spanning n nodes.
func (m *Model) CommSeconds(n int) float64 {
	if n <= 1 || m.CommFrac == 0 {
		return 0
	}
	return m.CommFrac * m.TargetSoloSec * (1 + m.CommGrowth*(math.Log2(float64(n))-1))
}

// WorkPerProcess returns the compute work in giga-instructions each
// process executes for a run spanning n nodes.
func (m *Model) WorkPerProcess(n int) float64 {
	w := m.WorkGI
	if n > 1 && m.SpreadWorkBoost > 0 {
		w *= m.SpreadWorkBoost
	}
	return w
}

// Calibrate derives the internal curve constants and per-process work from
// the calibration targets, for nodes of the given spec. It must be called
// (normally by the catalog) before any other method.
func (m *Model) Calibrate(spec hw.NodeSpec) error {
	m.refWays = float64(spec.LLCWays)
	m.missRef = m.missShape(m.refWays)
	if !(m.missRef > 0) {
		return fmt.Errorf("app: %s: miss curve has no positive full-way reference (MissFloorFrac %g, WHalf %g)",
			m.Name, m.MissFloorFrac, m.WHalf)
	}
	if m.SpreadMissBoost == 0 {
		m.SpreadMissBoost = 1
	}
	if m.SpreadWorkBoost == 0 {
		m.SpreadWorkBoost = 1
	}
	// Derive h from the 90%-performance way target:
	// FloorFrac + (1-f)*mm(L)/mm(R) = 0.9 with R = refWays.
	if m.FloorFrac >= 0.9 {
		// Insensitive: any allocation meets 90%; curve shape barely
		// matters.
		m.h = 1
	} else {
		L, R := m.LeastWays90, m.refWays
		x := (0.9 - m.FloorFrac) / (1 - m.FloorFrac)
		if R*x <= L {
			return fmt.Errorf("app: %s: LeastWays90 %g unreachable with floor %g on %g ways",
				m.Name, L, m.FloorFrac, R)
		}
		m.h = R * L * (1 - x) / (R*x - L)
	}
	// Derive per-process work from the target exclusive 1-node time.
	rate := m.soloRate(spec)
	if rate <= 0 {
		return fmt.Errorf("app: %s: non-positive solo rate", m.Name)
	}
	m.WorkGI = m.TargetSoloSec * rate
	return nil
}

// soloRate is the per-core instruction rate (giga-instructions/s) of an
// exclusive 1-node run at reference concurrency with all ways.
func (m *Model) soloRate(spec hw.NodeSpec) float64 {
	eff := m.EffectiveWays(spec.LLCWays.Float64(), RefConcurrency)
	ipc := m.IPC(eff, RefConcurrency, spec.Cores.Int())
	demandPC := m.BWDemandPerCore(eff, RefConcurrency, spec.Cores.Int(), false)
	demand := demandPC * RefConcurrency
	supply := spec.StreamBandwidth(RefConcurrency).Float64()
	throttle := 1.0
	if demand > supply && demand > 0 {
		throttle = supply / demand
	}
	if io := m.IOBWPerCore * RefConcurrency; io > spec.IOBandwidth.Float64() && io > 0 {
		if t := spec.IOBandwidth.Float64() / io; t < throttle {
			throttle = t
		}
	}
	return ipc * spec.FreqGHz.Float64() * throttle
}

// LeastWaysFor returns the smallest integer way allocation (at reference
// concurrency, bounded below by the node minimum) achieving the given
// fraction of full-way IPC — the quantity Figure 12 reports at 0.9.
func (m *Model) LeastWaysFor(frac float64, spec hw.NodeSpec) int {
	full := m.IPCRel(spec.LLCWays.Float64())
	for w := spec.MinWaysPerJob; w <= spec.LLCWays; w++ {
		if m.IPCRel(w.Float64()) >= frac*full {
			return w.Int()
		}
	}
	return spec.LLCWays.Int()
}

// Validate reports whether the calibrated model's parameters are usable.
func (m *Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("app: model needs a name")
	case m.IPCMax <= 0:
		return fmt.Errorf("app: %s: IPCMax must be positive", m.Name)
	case m.FloorFrac < 0 || m.FloorFrac >= 1:
		return fmt.Errorf("app: %s: FloorFrac %g outside [0, 1)", m.Name, m.FloorFrac)
	case m.BWPerCoreRef < 0:
		return fmt.Errorf("app: %s: negative bandwidth", m.Name)
	case m.MissPctRef < 0 || m.MissPctRef > 100:
		return fmt.Errorf("app: %s: miss rate %g outside [0, 100]", m.Name, m.MissPctRef)
	case m.WHalf <= 0:
		return fmt.Errorf("app: %s: WHalf must be positive", m.Name)
	case m.TargetSoloSec <= 0:
		return fmt.Errorf("app: %s: TargetSoloSec must be positive", m.Name)
	case m.WorkGI <= 0:
		return fmt.Errorf("app: %s: not calibrated (WorkGI %g)", m.Name, m.WorkGI)
	case m.PhaseAmp < 0 || m.PhaseAmp >= 1:
		return fmt.Errorf("app: %s: PhaseAmp %g outside [0, 1)", m.Name, m.PhaseAmp)
	}
	return nil
}
