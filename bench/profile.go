package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"runtime/pprof"
)

// The CPU profile answers what no public call brackets: where the time
// inside Search.Place goes. Each sample is assigned to one bucket by
// its call stack, innermost frame first:
//
//  1. the first frame matching a function rule decides (so time in
//     Search.fits counts as walk under ScoreCache.walk and as flush
//     under ScoreCache.flush, and a sort counts for whoever sorted);
//  2. otherwise the first frame matching a package rule decides, so a
//     renamed or new kernel function degrades to its package's bucket
//     instead of vanishing;
//  3. otherwise the sample is unmatched (runtime scheduler, idle
//     netpoll, signal handling).
var (
	functionRules = []profileRule{
		{regexp.MustCompile(`^runtime\.(mallocgc|newobject|newarray|makeslice|growslice|makemap|makechan|\(\*mcache\)|\(\*mcentral\)|\(\*mheap\)\.alloc)`), "cpu.runtime_alloc_pct"},
		{regexp.MustCompile(`^runtime\.(gcBgMarkWorker|gcDrain|scanobject|scanblock|greyobject|markroot|gcAssistAlloc|gcMark|gcSweep|gcStart|gcFlushBgCredit|bgsweep|bgscavenge|sweepone|wbBufFlush|gcWriteBarrier|\(\*gcWork\)|\(\*sweepLocked\)|\(\*gcControllerState\))`), "cpu.runtime_gc_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/placement\.(\(\*ScoreCache\)\.walk|searchAfter)`), "cpu.placement_walk_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/placement\.(\(\*ScoreCache\)\.(flush|fold|prepare|live)|entryLess)`), "cpu.placement_flush_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/(placement\.(\(\*Search\)\.(mergeShards|takeIdlest|selectIdlest)|\(\*shardRun\))|par\.(Merge|mergeTree))`), "cpu.placement_merge_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/placement\.\(\*ScoreCache\)\.Invalidate`), "cpu.placement_invalidate_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/placement\.(\(\*SimState\)\.(Reserve|Release|applySpan|mutTask|notifySpan)|\(\*CoreIndex\)\.(Update|shiftTo|applyCounts)|\(\*ShardSet\)\.update)`), "cpu.placement_mutate_pct"},
	}
	packageRules = []profileRule{
		// Pending.Schedule encloses every placement attempt, so it may
		// only claim samples whose innermost repository frame it is.
		{regexp.MustCompile(`^spreadnshare/internal/placement\.\(\*Pending\)`), "cpu.placement_queue_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/placement\.`), "cpu.placement_other_pct"},
		{regexp.MustCompile(`^(spreadnshare/internal/svc/api|net/http|net/textproto|net|encoding/json|internal/poll|syscall|bufio)\.`), "cpu.http_json_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/svc\.`), "cpu.svc_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/(sim|trace)\.`), "cpu.sim_trace_pct"},
		{regexp.MustCompile(`^spreadnshare/internal/(sched|exec|cluster|pmu|interconnect|daemon|workload|experiments)\.`), "cpu.testbed_pct"},
		{regexp.MustCompile(`^main\.`), "cpu.bench_pct"},
	}
)

const unmatchedBucket = "cpu.unmatched_pct"

type profileRule struct {
	re     *regexp.Regexp
	bucket string
}

// bucketOf assigns one call stack (function names, innermost first).
func bucketOf(stack []string) string {
	for _, rules := range [][]profileRule{functionRules, packageRules} {
		for _, fn := range stack {
			for _, r := range rules {
				if r.re.MatchString(fn) {
					return r.bucket
				}
			}
		}
	}
	return unmatchedBucket
}

// cpuProfile accumulates bucketed CPU samples over any number of
// start/stop windows, so only the traced passes over the real layers
// are profiled.
type cpuProfile struct {
	buf     bytes.Buffer
	running bool
	samples map[string]int64
	err     error
}

func (p *cpuProfile) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
		return
	}
	p.running = true
}

func (p *cpuProfile) stop() {
	if !p.running {
		return
	}
	pprof.StopCPUProfile()
	p.running = false
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	if p.samples == nil {
		p.samples = map[string]int64{}
	}
	for _, s := range stacks {
		p.samples[bucketOf(s.stack)] += s.count
	}
}

// percentages returns every bucket's share of the samples taken.
func (p *cpuProfile) percentages() map[string]float64 {
	out := map[string]float64{unmatchedBucket: 0}
	for _, rules := range [][]profileRule{functionRules, packageRules} {
		for _, r := range rules {
			out[r.bucket] = 0
		}
	}
	total := int64(0)
	for _, n := range p.samples {
		total += n
	}
	if total == 0 {
		return out
	}
	for b, n := range p.samples {
		out[b] = 100 * float64(n) / float64(total)
	}
	return out
}

// profileSample is one decoded sample: its call stack as function
// names, innermost first, and its sample count.
type profileSample struct {
	stack []string
	count int64
}

// decodeProfile reads the gzip-compressed pprof protobuf that
// runtime/pprof writes, keeping only what bucketing needs: samples,
// their locations' lines, and function names. (The module takes no
// dependencies, so the few fields are decoded by hand; field numbers
// are those of pprof's profile.proto.)
func decodeProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or its bytes (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value
// when it arrived unpacked, the whole run when packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
