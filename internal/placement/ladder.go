package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"spreadnshare/internal/core"
	"spreadnshare/internal/hw"
	"spreadnshare/internal/profiler"
)

// The scale ladder. An SNS attempt tries a job's profiled scale factors in
// a fixed order and, at each, asks the cluster for the demand the profile's
// curves give under the job's alpha. Neither the order nor the demands
// depend on the cluster or on anything else in the request, so a Search
// resolves them once per (profile, alpha) and every later attempt reads
// them with one map access.
//
// The contract that makes this safe: a Profile is immutable once a request
// carries it. Whoever learns more about a program stores a new Profile (a
// new pointer, hence a new key) instead of editing the old one — what the
// profiler, the explorer and the piggy-backed trials already do.
// auditLadders re-derives every entry, so an edit in place fails the
// invariant auditor instead of a digest.

// maxLadders caps the memo. A testbed run holds one entry per profile; the
// cap only stops a daemon fed a stream of never-repeating alphas from
// growing without bound, and a dropped entry costs one resolution.
const maxLadders = 256

// ladderKey names one memoised ladder. Alpha is keyed by its bit pattern,
// which hashes and compares equal to itself even when it is NaN.
type ladderKey struct {
	prof  *profiler.Profile
	alpha uint64
}

// rung is one step of a resolved ladder: a profiled scale factor and the
// per-node demand estimated at it. Per attempt, a process-based request
// overrides the demand's cores with its own share, and every request sets
// its memory to those cores' worth.
type rung struct {
	k int
	d core.Demand
}

// ladder returns the resolved ladder of a profile under an alpha.
//
//sns:hotpath
func (s *Search) ladder(prof *profiler.Profile, alpha float64) []rung {
	key := ladderKey{prof: prof, alpha: math.Float64bits(alpha)}
	if lad, ok := s.ladders[key]; ok {
		return lad
	}
	if s.ladders == nil || len(s.ladders) >= maxLadders {
		//lint:allocfree once per Search, and again only past maxLadders distinct (profile, alpha) pairs
		s.ladders = make(map[ladderKey][]rung)
	}
	lad := resolveLadder(prof, alpha, s.Spec)
	//lint:allocfree once per (profile, alpha); every later attempt is the map read above
	s.ladders[key] = lad
	return lad
}

// resolveLadder computes a ladder from its profile: scales in descending
// exclusive performance, re-sorted by ascending scale factor for programs
// that are only spread passively, each with its estimated demand.
func resolveLadder(prof *profiler.Profile, alpha float64, spec hw.NodeSpec) []rung {
	scales := prof.ByPerformance()
	if prof.Class != profiler.Scaling {
		// ByPerformance hands out a fresh slice, so it is re-sorted in place.
		//lint:allocfree once per (profile, alpha), on the memo's miss path
		sort.Slice(scales, func(a, b int) bool { return scales[a].K < scales[b].K })
	}
	//lint:allocfree once per (profile, alpha), on the memo's miss path
	lad := make([]rung, len(scales))
	for i, sp := range scales {
		lad[i] = rung{k: sp.K, d: core.EstimateDemand(sp, alpha, spec)}
	}
	return lad
}

// auditLadders re-derives every memoised ladder from its profile and
// compares rung for rung. A difference means a profile was edited after a
// request carried it — after which placeSNS would keep trying the scales,
// in the order and with the demands, of a profile that no longer exists.
// Search.Audit runs it.
func (s *Search) auditLadders() error {
	//lint:ordered every entry is checked; order only picks which mismatch is reported
	for key, lad := range s.ladders {
		alpha := math.Float64frombits(key.alpha)
		fresh := resolveLadder(key.prof, alpha, s.Spec)
		if !slices.Equal(lad, fresh) {
			return fmt.Errorf("placement: %s/%d profile changed after its ladder was resolved: under alpha %g memoised as %+v, now %+v",
				key.prof.Program, key.prof.Procs, alpha, lad, fresh)
		}
	}
	return nil
}
