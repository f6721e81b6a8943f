package core

import (
	"math"
	"testing"
	"testing/quick"

	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
)

// syntheticProfile builds a ScaleProfile with a linear IPC curve from lo at
// way 1 to hi at way 20 and a bandwidth curve declining from bwLo demand.
func syntheticProfile(lo, hi float64) *profiler.ScaleProfile {
	ipc := make([]float64, 21)
	bw := make([]float64, 21)
	for w := 1; w <= 20; w++ {
		ipc[w] = lo + (hi-lo)*float64(w-1)/19
		bw[w] = 100 - 2*float64(w)
	}
	return &profiler.ScaleProfile{K: 1, Nodes: 1, CoresPerNode: 16, TimeSec: 100,
		IPCByWay: ipc, BWByWay: bw}
}

func TestEstimateDemandWalksCurve(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	sp := syntheticProfile(0.5, 1.0)
	// alpha 0.9: target = 0.9; curve hits 0.9 at w where
	// 0.5 + 0.5*(w-1)/19 >= 0.9 -> w >= 16.2 -> 17 ways.
	d := EstimateDemand(sp, 0.9, spec)
	if d.Ways != 17 {
		t.Errorf("Ways = %d, want 17", d.Ways)
	}
	if d.Cores != 16 {
		t.Errorf("Cores = %d, want 16", d.Cores)
	}
	if want := 100 - 2*17.0; d.BW.Float64() != want {
		t.Errorf("BW = %g, want %g (curve at demanded ways)", d.BW, want)
	}
}

func TestEstimateDemandInsensitiveProgram(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	sp := syntheticProfile(0.99, 1.0)
	d := EstimateDemand(sp, 0.9, spec)
	if d.Ways != spec.MinWaysPerJob {
		t.Errorf("insensitive program demanded %d ways, want hardware minimum %d",
			d.Ways, spec.MinWaysPerJob)
	}
}

func TestEstimateDemandAlphaOne(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	sp := syntheticProfile(0.5, 1.0)
	d := EstimateDemand(sp, 1.0, spec)
	if d.Ways != 20 {
		t.Errorf("alpha=1 demanded %d ways, want full 20", d.Ways)
	}
	// Out-of-range alpha treated as 1.
	d2 := EstimateDemand(sp, 0, spec)
	if d2.Ways != 20 {
		t.Errorf("alpha=0 demanded %d ways, want full 20 (treated as 1)", d2.Ways)
	}
}

// A NaN alpha is out of range like any other and is treated as 1: on a
// curve that plateaus at 5 ways, it demands the plateau, not every way.
func TestEstimateDemandAlphaNaN(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	ipc := make([]float64, 21)
	bw := make([]float64, 21)
	for w := 1; w <= 20; w++ {
		ipc[w] = float64(min(w, 5)) / 5
		bw[w] = 10
	}
	sp := &profiler.ScaleProfile{K: 1, Nodes: 1, CoresPerNode: 16, TimeSec: 100, IPCByWay: ipc, BWByWay: bw}
	for _, alpha := range []float64{1, 2, math.NaN()} {
		if d := EstimateDemand(sp, alpha, spec); d.Ways != 5 {
			t.Errorf("alpha=%g demanded %d ways, want the plateau's 5", alpha, d.Ways)
		}
	}
}

func TestEstimateDemandEmptyProfile(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	d := EstimateDemand(&profiler.ScaleProfile{CoresPerNode: 8}, 0.9, spec)
	if d.Cores != 8 || d.Ways != spec.MinWaysPerJob {
		t.Errorf("empty profile demand = %+v", d)
	}
}

// Property: demanded ways decrease (weakly) as alpha loosens, and the
// demand always meets the target IPC on the curve.
func TestEstimateDemandMonotoneInAlpha(t *testing.T) {
	spec := hw.DefaultNodeSpec()
	f := func(loRaw, a1Raw, a2Raw uint16) bool {
		lo := 0.3 + float64(loRaw%60)/100 // 0.3..0.89
		sp := syntheticProfile(lo, 1.0)
		a1 := 0.5 + float64(a1Raw%50)/100
		a2 := 0.5 + float64(a2Raw%50)/100
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		d1 := EstimateDemand(sp, a1, spec)
		d2 := EstimateDemand(sp, a2, spec)
		if d1.Ways > d2.Ways {
			return false
		}
		return sp.IPCAt(d2.Ways.Int()) >= a2*sp.IPCAt(20)-1e-9 || d2.Ways == spec.MinWaysPerJob
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
