package app

import (
	"math"
	"testing"
	"testing/quick"

	"spreadnshare/internal/hw"
)

func testModel(t *testing.T, name string) *Model {
	t.Helper()
	cat, err := NewCatalog(hw.DefaultNodeSpec())
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	m, err := cat.Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", name, err)
	}
	return m
}

func TestIPCRelMonotone(t *testing.T) {
	for _, name := range ProgramNames {
		m := testModel(t, name)
		prev := -1.0
		for w := 1.0; w <= 60; w++ {
			v := m.IPCRel(w)
			if v < prev-1e-12 {
				t.Errorf("%s: IPCRel(%g) = %g < IPCRel(%g) = %g", name, w, v, w-1, prev)
			}
			prev = v
		}
	}
}

func TestIPCRelNormalization(t *testing.T) {
	for _, name := range ProgramNames {
		m := testModel(t, name)
		if got := m.IPCRel(20); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: IPCRel(20) = %g, want 1", name, got)
		}
		if got := m.IPCRel(0); math.Abs(got-m.FloorFrac) > 1e-12 {
			t.Errorf("%s: IPCRel(0) = %g, want floor %g", name, got, m.FloorFrac)
		}
	}
}

func TestLeastWays90Calibration(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	want := map[string]int{
		"MG": 3, "CG": 10, "EP": 2, "HC": 2, "LU": 4, "WC": 4,
		"TS": 14, "NW": 17, "BFS": 17, "BW": 4, "GAN": 6, "RNN": 6,
	}
	for name, w := range want {
		m := testModel(t, name)
		got := m.LeastWaysFor(0.9, spec)
		if got < w-1 || got > w+1 {
			t.Errorf("%s: least ways for 90%% = %d, want %d (+-1)", name, got, w)
		}
	}
}

func TestMissRelShape(t *testing.T) {
	m := testModel(t, "MG")
	if got := m.MissRel(20, false); math.Abs(got-1) > 1e-12 {
		t.Errorf("MissRel(20) = %g, want 1", got)
	}
	if m.MissRel(2, false) <= m.MissRel(20, false) {
		t.Error("miss rate with 2 ways not above miss rate with 20 ways")
	}
	if m.MissRel(40, false) >= m.MissRel(20, false) {
		t.Error("miss rate with 40 ways not below miss rate with 20 ways")
	}
}

func TestSpreadMissBoost(t *testing.T) {
	bfs := testModel(t, "BFS")
	if got, want := bfs.MissRel(20, true), bfs.SpreadMissBoost; math.Abs(got-want) > 1e-12 {
		t.Errorf("BFS spread MissRel(20) = %g, want boost %g", got, want)
	}
	mg := testModel(t, "MG")
	if got := mg.MissRel(20, true); math.Abs(got-1) > 1e-12 {
		t.Errorf("MG spread MissRel(20) = %g, want 1 (no boost)", got)
	}
}

func TestMissPctCap(t *testing.T) {
	m := testModel(t, "BFS")
	if got := m.MissPct(0.1, true); got > 95 {
		t.Errorf("MissPct = %g, want capped at 95", got)
	}
}

func TestEffectiveWays(t *testing.T) {
	m := testModel(t, "MG")
	if got := m.EffectiveWays(20, 16); got != 20 {
		t.Errorf("EffectiveWays(20, 16) = %g, want 20", got)
	}
	if got := m.EffectiveWays(20, 8); got != 40 {
		t.Errorf("EffectiveWays(20, 8) = %g, want 40", got)
	}
	if got := m.EffectiveWays(10, 16); got != 10 {
		t.Errorf("EffectiveWays(10, 16) = %g, want 10", got)
	}
	if got := m.EffectiveWays(20, 0); got != 0 {
		t.Errorf("EffectiveWays(20, 0) = %g, want 0", got)
	}
	nw := testModel(t, "NW")
	if got := nw.EffectiveWays(20, 2); got != 20 {
		t.Errorf("NW EffectiveWays(20, 2) = %g, want capped at 20", got)
	}
}

func TestLatencyContention(t *testing.T) {
	cg := testModel(t, "CG")
	solo := cg.IPC(20, 1, 28)
	packed := cg.IPC(20, 28, 28)
	if packed >= solo {
		t.Errorf("CG IPC under full load %g not below solo %g", packed, solo)
	}
	ratio := solo / packed
	if math.Abs(ratio-(1+cg.LatSens)) > 1e-9 {
		t.Errorf("full-load degradation = %g, want %g", ratio, 1+cg.LatSens)
	}
	ep := testModel(t, "EP")
	if ep.IPC(20, 28, 28) != ep.IPC(20, 1, 28) {
		t.Error("EP (LatSens 0) degraded under load")
	}
}

func TestBWDemandCalibration(t *testing.T) {
	// Figure 4 anchors: per-core demand at the reference point.
	spec := hw.DefaultNodeSpec()
	for _, c := range []struct {
		name   string
		demand float64 // total for 16 cores
		tol    float64
	}{
		{"MG", 140, 25},  // demand above supply; achieved ~112
		{"CG", 42.9, 10}, // unthrottled, matches measured
		{"EP", 0.09, 0.05},
		{"BFS", 0.12, 0.06},
	} {
		m := testModel(t, c.name)
		got := 16 * m.BWDemandPerCore(20, 16, spec.Cores.Int(), false)
		if math.Abs(got-c.demand) > c.tol {
			t.Errorf("%s: 16-core demand = %g GB/s, want %g (+-%g)", c.name, got, c.demand, c.tol)
		}
	}
}

func TestCommSeconds(t *testing.T) {
	mg := testModel(t, "MG")
	if got := mg.CommSeconds(1); got != 0 {
		t.Errorf("CommSeconds(1) = %g, want 0", got)
	}
	t2, t4, t8 := mg.CommSeconds(2), mg.CommSeconds(4), mg.CommSeconds(8)
	if !(t2 < t4 && t4 < t8) {
		t.Errorf("comm time not growing: %g, %g, %g", t2, t4, t8)
	}
	// NPB communication stays under 10%% of run time (Figure 7).
	if frac := t8 / mg.TargetSoloSec; frac > 0.10 {
		t.Errorf("MG comm fraction at 8 nodes = %g, want < 0.10", frac)
	}
}

func TestWorkPerProcessSpreadBoost(t *testing.T) {
	bfs := testModel(t, "BFS")
	if got, want := bfs.WorkPerProcess(2), bfs.WorkGI*1.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("BFS spread work = %g, want %g", got, want)
	}
	if got := bfs.WorkPerProcess(1); got != bfs.WorkGI {
		t.Errorf("BFS 1-node work = %g, want %g", got, bfs.WorkGI)
	}
}

func TestCalibrateDerivesPositiveWork(t *testing.T) {
	for _, name := range ProgramNames {
		m := testModel(t, name)
		if m.WorkGI <= 0 {
			t.Errorf("%s: WorkGI = %g, want positive", name, m.WorkGI)
		}
	}
}

func TestCalibrateRejectsUnreachableTarget(t *testing.T) {
	m := &Model{
		Name: "bad", IPCMax: 1, FloorFrac: 0.0, LeastWays90: 19,
		BWPerCoreRef: 1, MissPctRef: 10, MissFloorFrac: 0.5, WHalf: 5,
		TargetSoloSec: 100,
	}
	if err := m.Calibrate(hw.DefaultNodeSpec()); err == nil {
		t.Error("Calibrate accepted 90%-way target beyond the curve's reach")
	}
}

// TestUncalibratedModelFailsLoudly pins the two ways a model without a
// miss-curve reference is stopped: MissRel divides by a constant Calibrate
// stores, so a model Calibrate never saw panics instead of returning
// +Inf, and a model whose curve has no positive reference is refused by
// Calibrate itself.
func TestUncalibratedModelFailsLoudly(t *testing.T) {
	raw := &Model{
		Name: "raw", IPCMax: 1, FloorFrac: 0.5, LeastWays90: 4,
		BWPerCoreRef: 1, MissPctRef: 10, MissFloorFrac: 0.5, WHalf: 5,
		TargetSoloSec: 100,
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MissRel on a model Calibrate never saw returned instead of panicking")
			}
		}()
		raw.MissRel(8, false)
	}()
	if err := raw.Calibrate(hw.DefaultNodeSpec()); err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if rel := raw.MissRel(hw.DefaultNodeSpec().LLCWays.Float64(), false); rel != 1 {
		t.Errorf("calibrated MissRel at full ways = %g, want 1", rel)
	}

	flat := *raw
	flat.Name, flat.MissFloorFrac, flat.WHalf, flat.missRef = "flat", 0, 0, 0
	if err := flat.Calibrate(hw.DefaultNodeSpec()); err == nil {
		t.Error("Calibrate accepted a miss curve whose full-way reference is zero")
	}
}

// Property: IPC never increases with node load and never decreases with
// cache, for every program.
func TestIPCProperties(t *testing.T) {
	cat, err := NewCatalog(hw.DefaultNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	f := func(wRaw, loadRaw uint8, pick uint8) bool {
		name := ProgramNames[int(pick)%len(ProgramNames)]
		m, _ := cat.Lookup(name)
		w := float64(wRaw%40) + 1
		a := int(loadRaw%28) + 1
		if m.IPC(w+1, a, 28) < m.IPC(w, a, 28)-1e-12 {
			return false
		}
		if a < 28 && m.IPC(w, a+1, 28) > m.IPC(w, a, 28)+1e-12 {
			return false
		}
		return m.BWDemandPerCore(w, a, 28, false) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}

func TestFrameworkString(t *testing.T) {
	cases := map[Framework]string{
		MPI: "MPI", Spark: "Spark", TensorFlow: "TensorFlow",
		Replicated: "Replicated", Framework(9): "Framework(9)",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Framework(%d).String() = %q, want %q", int(f), got, want)
		}
	}
}

// TestCurvesMatchPerReadingCalls holds the one-evaluation path the
// execution engine uses (Curves, then IPCFrom, BWDemandFrom and
// MissPctFrom) bit for bit to the per-reading methods and to their
// formulas written out in full, for every program over a grid of
// effective ways, node occupancies and both spread states.
func TestCurvesMatchPerReadingCalls(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	total := spec.Cores.Int()
	grid := []float64{0, 0.25, 0.5, 1, 1.5, 2, 3, 5, 8, 13, 20, 33, 60, 320}
	for c := 1; c <= total; c++ { // what EffectiveWays yields on a node
		for _, ways := range []float64{2, 7, 20} {
			grid = append(grid, ways*RefConcurrency/float64(c))
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, name := range ProgramNames {
		m := testModel(t, name)
		for _, eff := range grid {
			for _, spread := range []bool{false, true} {
				ipcRel, missRel := m.Curves(eff, spread)
				if !same(ipcRel, m.IPCRel(eff)) || !same(missRel, m.MissRel(eff, spread)) {
					t.Fatalf("%s: Curves(%g, %v) = (%g, %g), want (%g, %g)",
						name, eff, spread, ipcRel, missRel, m.IPCRel(eff), m.MissRel(eff, spread))
				}
				miss := m.MissPctRef * m.MissRel(eff, spread)
				if miss > 95 {
					miss = 95
				}
				if got := m.MissPctFrom(missRel); !same(got, m.MissPct(eff, spread)) || !same(got, miss) {
					t.Fatalf("%s: MissPctFrom at (%g, %v) = %g, MissPct %g, formula %g",
						name, eff, spread, got, m.MissPct(eff, spread), miss)
				}
				for active := 1; active <= total; active++ {
					load := m.LoadFactor(active, total)
					ipc := m.IPCMax * m.IPCRel(eff) / load
					if got := m.IPCFrom(ipcRel, load); !same(got, m.IPC(eff, active, total)) || !same(got, ipc) {
						t.Fatalf("%s: IPCFrom at (%g, %d) = %g, IPC %g, formula %g",
							name, eff, active, got, m.IPC(eff, active, total), ipc)
					}
					bw := m.BWPerCoreRef * m.IPCRel(eff) / load * m.MissRel(eff, spread)
					got := m.BWDemandFrom(ipcRel, missRel, load)
					if want := m.BWDemandPerCore(eff, active, total, spread); !same(got, want) || !same(got, bw) {
						t.Fatalf("%s: BWDemandFrom at (%g, %d, %v) = %g, BWDemandPerCore %g, formula %g",
							name, eff, active, spread, got, want, bw)
					}
				}
			}
		}
	}
}
