package placement

import (
	"sort"
	"testing"

	"spreadnshare/internal/app"
	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
)

// testbedProfiles profiles the catalog the way experiments.NewEnv does
// (every program at 16 processes, the non-power-of-2 ones at 28 too);
// that package imports this one, so its DB is rebuilt here.
func testbedProfiles(t *testing.T) map[string]*profiler.Profile {
	t.Helper()
	spec := hw.DefaultClusterSpec()
	cat, err := app.NewCatalog(spec.Node)
	if err != nil {
		t.Fatal(err)
	}
	db := profiler.NewDB()
	k := profiler.New(spec)
	if err := k.ProfileAll(cat, app.ProgramNames, 16, db); err != nil {
		t.Fatal(err)
	}
	var flexible []string
	for _, name := range app.ProgramNames {
		if m, _ := cat.Lookup(name); !m.PowerOf2 {
			flexible = append(flexible, name)
		}
	}
	if err := k.ProfileAll(cat, flexible, 28, db); err != nil {
		t.Fatal(err)
	}
	return db.Profiles
}

// TestLadderMemoMatchesFresh holds the memo to the body it replaced: for
// every testbed profile and three alphas, the ladder a Search resolves —
// on the miss and again on the hit — is ByPerformance, re-sorted by scale
// factor for the passively spread classes, with EstimateDemand at each
// rung, computed on the spot. A second Search over the same profiles
// resolves its own ladders: a Search is single-goroutine, the profiles are
// what parallel runs share, read-only.
func TestLadderMemoMatchesFresh(t *testing.T) {
	profs := testbedProfiles(t)
	if len(profs) < 12 {
		t.Fatalf("only %d testbed profiles", len(profs))
	}
	_, s := newTestSearch(8)
	_, other := newTestSearch(8)
	classes := map[profiler.Class]bool{}
	for _, prof := range profs {
		classes[prof.Class] = true
		for _, alpha := range []float64{0.7, 0.9, 1} {
			scales := prof.ByPerformance()
			if prof.Class != profiler.Scaling {
				sort.Slice(scales, func(a, b int) bool { return scales[a].K < scales[b].K })
			}
			for pass, lad := range [][]rung{s.ladder(prof, alpha), s.ladder(prof, alpha)} {
				if len(lad) != len(scales) {
					t.Fatalf("%s/%d alpha %g pass %d: %d rungs, want %d", prof.Program, prof.Procs, alpha, pass, len(lad), len(scales))
				}
				for i, sp := range scales {
					if want := (rung{k: sp.K, d: core.EstimateDemand(sp, alpha, s.Spec)}); lad[i] != want {
						t.Errorf("%s/%d alpha %g pass %d rung %d = %+v, want %+v", prof.Program, prof.Procs, alpha, pass, i, lad[i], want)
					}
				}
			}
			mine, theirs := s.ladder(prof, alpha), other.ladder(prof, alpha)
			if len(mine) > 0 && &mine[0] == &theirs[0] {
				t.Errorf("%s/%d alpha %g: two searches share one ladder", prof.Program, prof.Procs, alpha)
			}
		}
	}
	if len(classes) < 2 {
		t.Errorf("testbed profiles cover classes %v; the re-sort went untested", classes)
	}
	if got, want := len(s.ladders), 3*len(profs); got != want {
		t.Errorf("%d ladders memoised, want one per (profile, alpha) = %d", got, want)
	}
	if err := s.auditLadders(); err != nil {
		t.Errorf("audit of untouched profiles: %v", err)
	}
}

// TestLadderMemoBounded feeds one profile a stream of never-repeating
// alphas, NaN among them: the memo stays within its cap and keeps
// answering.
func TestLadderMemoBounded(t *testing.T) {
	_, s := newTestSearch(8)
	prof := flatProfile(1, 2)
	nan := 0.0
	nan /= nan
	for i := 0; i < 3*maxLadders; i++ {
		alpha := 0.5 + float64(i)/float64(8*maxLadders)
		if i%7 == 0 {
			alpha = nan
		}
		if lad := s.ladder(prof, alpha); len(lad) != 2 {
			t.Fatalf("alpha %g: %d rungs, want 2", alpha, len(lad))
		}
		if len(s.ladders) > maxLadders {
			t.Fatalf("memo holds %d ladders, cap %d", len(s.ladders), maxLadders)
		}
	}
}
