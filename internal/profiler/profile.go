// Package profiler implements Kunafa, the paper's lightweight PMU-based
// profiler, against the simulated cluster. It measures each program at a
// small set of scale factors: a clean exclusive run for timing, plus an
// instrumented run that periodically re-programs the job's LLC allocation
// (2, 4, 8 and full ways, five-second episodes) while sampling IPC and
// memory bandwidth, then linearly interpolates the IPC-LLC and BW-LLC
// curves (Section 5.1). Profiles accumulate in a JSON database keyed by
// program and process count, ready for reuse across recurring submissions.
package profiler

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// Class is the scaling classification of Section 4.2.
type Class int

const (
	// Neutral programs run within 5% across all scale factors; they
	// are ideal fillers.
	Neutral Class = iota
	// Scaling programs speed up when spread onto more nodes.
	Scaling
	// Compact programs suffer from spreading and should stay at their
	// minimum footprint.
	Compact
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Neutral:
		return "neutral"
	case Scaling:
		return "scaling"
	case Compact:
		return "compact"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ScaleProfile is the measurement of one program at one scale factor.
type ScaleProfile struct {
	// K is the scale factor: the job uses K times its minimum node
	// footprint.
	K int `json:"k"`
	// Nodes and CoresPerNode describe the measured placement
	// (CoresPerNode is the maximum across nodes).
	Nodes        int `json:"nodes"`
	CoresPerNode int `json:"coresPerNode"`
	// TimeSec is the exclusive run time from the clean (uninstrumented)
	// run.
	TimeSec float64 `json:"timeSec"`
	// IPCByWay[w] is the measured per-core IPC with w ways allocated
	// per node (index 0 unused). Missing sample points are linearly
	// interpolated.
	IPCByWay []float64 `json:"ipcByWay"`
	// BWByWay[w] is the measured per-node memory bandwidth (GB/s).
	BWByWay []float64 `json:"bwByWay"`
	// MissByWay[w] is the measured LLC miss rate (%).
	MissByWay []float64 `json:"missByWay"`
	// IOPerNode is the measured parallel-file-system bandwidth per
	// node (GB/s); cache allocation does not affect it.
	IOPerNode float64 `json:"ioPerNode,omitempty"`
}

// FullWays returns the largest way index the curves cover.
func (s *ScaleProfile) FullWays() int { return len(s.IPCByWay) - 1 }

// IPCAt returns the profiled IPC at a way allocation, clamping out-of-range
// indices.
func (s *ScaleProfile) IPCAt(w int) float64 {
	return curveAt(s.IPCByWay, w)
}

// BWAt returns the profiled per-node bandwidth at a way allocation.
func (s *ScaleProfile) BWAt(w int) float64 {
	return curveAt(s.BWByWay, w)
}

func curveAt(curve []float64, w int) float64 {
	if len(curve) <= 1 {
		return 0
	}
	if w < 1 {
		w = 1
	}
	if w > len(curve)-1 {
		w = len(curve) - 1
	}
	return curve[w]
}

// Profile is the accumulated knowledge about one (program, process count)
// pair.
type Profile struct {
	Program string `json:"program"`
	Procs   int    `json:"procs"`
	// Scales holds per-scale measurements in ascending K.
	Scales []ScaleProfile `json:"scales"`
	// Class is the scaling classification.
	Class Class `json:"class"`
	// ConstrainedBy names the resource bottleneck identified for
	// scaling programs ("memory-bandwidth", "llc", or "").
	ConstrainedBy string `json:"constrainedBy,omitempty"`
}

// Key returns the database key for a program/procs pair.
func Key(program string, procs int) string { return fmt.Sprintf("%s/%d", program, procs) }

// AtK returns the measurement for scale factor k.
func (p *Profile) AtK(k int) (*ScaleProfile, bool) {
	for i := range p.Scales {
		if p.Scales[i].K == k {
			return &p.Scales[i], true
		}
	}
	return nil, false
}

// Best returns the fastest profiled scale.
func (p *Profile) Best() *ScaleProfile {
	if len(p.Scales) == 0 {
		return nil
	}
	best := &p.Scales[0]
	for i := range p.Scales {
		if p.Scales[i].TimeSec < best.TimeSec {
			best = &p.Scales[i]
		}
	}
	return best
}

// ByPerformance returns the profiled scales ordered by descending
// exclusive-run performance (ascending time), the order SNS tries scale
// factors in (Section 4.4).
func (p *Profile) ByPerformance() []*ScaleProfile {
	out := make([]*ScaleProfile, len(p.Scales))
	for i := range p.Scales {
		out[i] = &p.Scales[i]
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].TimeSec < out[b].TimeSec })
	return out
}

// IdealK returns the scale factor with the best exclusive performance,
// or 1 if unprofiled.
func (p *Profile) IdealK() int {
	if b := p.Best(); b != nil {
		return b.K
	}
	return 1
}

// DB is the central profile database Uberun's daemons feed (a JSON file on
// the master node, cached in memory).
type DB struct {
	Profiles map[string]*Profile `json:"profiles"`
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{Profiles: make(map[string]*Profile)} }

// Get returns the profile for a program/procs pair. The scheduler asks on
// every placement attempt, so the key is spelled into a stack buffer —
// byte for byte what Key formats — and the lookup's string conversion
// does not allocate.
func (db *DB) Get(program string, procs int) (*Profile, bool) {
	var buf [64]byte
	k := append(buf[:0], program...)
	k = append(k, '/')
	k = strconv.AppendInt(k, int64(procs), 10)
	p, ok := db.Profiles[string(k)]
	return p, ok
}

// Put stores a profile, replacing any previous one.
func (db *DB) Put(p *Profile) {
	db.Profiles[Key(p.Program, p.Procs)] = p
}

// Save writes the database as JSON.
func (db *DB) Save(path string) error {
	data, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		return fmt.Errorf("profiler: marshal: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a database written by Save.
func Load(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	db := NewDB()
	if err := json.Unmarshal(data, db); err != nil {
		return nil, fmt.Errorf("profiler: parse %s: %w", path, err)
	}
	if db.Profiles == nil {
		db.Profiles = make(map[string]*Profile)
	}
	return db, nil
}

// Interpolate fills a dense way-indexed curve (1..maxWays) from sparse
// sample points, linearly between samples and flat beyond the extremes —
// the paper samples at {2, 4, 8, 20} and interpolates the rest.
func Interpolate(samples map[int]float64, maxWays int) []float64 {
	curve := make([]float64, maxWays+1)
	if len(samples) == 0 {
		return curve
	}
	xs := make([]int, 0, len(samples))
	for x := range samples {
		if x >= 1 && x <= maxWays {
			xs = append(xs, x)
		}
	}
	if len(xs) == 0 {
		return curve
	}
	sort.Ints(xs)
	for w := 1; w <= maxWays; w++ {
		switch {
		case w <= xs[0]:
			curve[w] = samples[xs[0]]
		case w >= xs[len(xs)-1]:
			curve[w] = samples[xs[len(xs)-1]]
		default:
			// Find the bracketing samples.
			hi := sort.SearchInts(xs, w)
			if xs[hi] == w {
				curve[w] = samples[w]
				continue
			}
			lo := hi - 1
			x0, x1 := xs[lo], xs[hi]
			y0, y1 := samples[x0], samples[x1]
			curve[w] = y0 + (y1-y0)*float64(w-x0)/float64(x1-x0)
		}
	}
	return curve
}
