package main

import (
	"bufio"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank percentile of xs (p in (0, 1]): the
// smallest value with at least p of the samples at or below it. With
// fewer than 1/(1-p) samples it is the maximum. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minOf is the smallest of xs, 0 for none.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// jobOut is one replayed job's outcome, the record the digests and the
// output checks read. Every replay path (trace.Simulate, Level A,
// Level B) is reduced to it.
type jobOut struct {
	Submit, Start, Finish float64
	Scale                 int
	Nodes                 []int
	// Procs is the job's process count (trace nodes x cores per node).
	Procs int
}

// digest is the FNV-1a hash of every job's (start, finish, scale, node
// list), in trace order. Two replay paths agree bit for bit exactly
// when their digests are equal.
func digest(jobs []jobOut) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range jobs {
		j := &jobs[i]
		put(math.Float64bits(j.Start))
		put(math.Float64bits(j.Finish))
		put(uint64(j.Scale))
		put(uint64(len(j.Nodes)))
		for _, id := range j.Nodes {
			put(uint64(id))
		}
	}
	return h.Sum64()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident set, so each pass gets a peak of its own and the
// reported median does not grow with the number of passes a run fits
// in. Where the kernel refuses, the mark simply keeps accumulating.
func resetPeakRSS() {
	// Best effort by design: see above.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark since the
// last reset.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// allocatedMB is the heap memory allocated so far, freed or not.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// cpuSeconds is the process's user+system CPU time so far, all threads.
// The benchmark's timings are CPU seconds, not wall seconds: on a
// shared host the hypervisor takes the CPU away for tens of
// milliseconds at a time, sometimes for half of every second, and the
// guest's CPU accounting leaves most of that stolen time out. What it
// leaves in is what refCPU is for.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// refNominalS is what one refCPU call costs, in CPU seconds, on an
// undisturbed vCPU of the machine the benchmark was sized on. Timings
// are reported as multiples of the reference measured beside them,
// times this constant, so they read as CPU seconds at that speed.
const refNominalS = 0.100

type refNode struct {
	next *refNode
	v    uint64
}

// refCPU runs the reference computation and returns the CPU seconds it
// took. It is a fixed mix of what the layers are made of (a dependent
// arithmetic chain, slice allocation, a sort, map updates, building and
// chasing a linked list) and it must never change: every timing the
// benchmark reports is relative to it. On a shared host, CPU time for
// fixed work swings by a third for minutes at a time (a neighbour on
// the sibling hyperthread, caches flushed by preemption); the reference
// swings with it, and the quotient holds still where the raw time and
// its minimum do not (README, Measured spread).
func refCPU() float64 {
	c0 := cpuSeconds()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sum := x
	for range 4 {
		xs := make([]int, 60000)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = int(x >> 20)
		}
		sort.Ints(xs)
		m := make(map[int]int, 1024)
		for i := 0; i < 40000; i++ {
			m[xs[i]&0xffff] += i
		}
		var head *refNode
		for i := 0; i < 40000; i++ {
			head = &refNode{next: head, v: uint64(xs[i])}
		}
		sum += uint64(len(m))
		for n := head; n != nil; n = n.next {
			sum += n.v
		}
	}
	spinSink += sum
	return cpuSeconds() - c0
}

// spinSink keeps the spin loop's result live.
var spinSink uint64

// spinMS times a fixed pure-CPU loop (no memory traffic, no
// allocation). A run is bracketed by two of them: when they disagree by
// more than 10% something else was using the machine, and the row says
// so instead of reading as a regression.
func spinMS() float64 {
	best := math.Inf(1)
	for range 3 {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		if d := float64(time.Since(t0)) / 1e6; d < best {
			best = d
		}
	}
	return best
}

func disturbed(before, after float64) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo <= 0 || (hi-lo)/lo > 0.10
}

// sleepLateP99MS is how late this machine wakes an otherwise idle
// process from a short sleep, at p99 over 200 sleeps on a 2.5 ms
// schedule. It bounds how well any timer-driven load generator or
// poll loop can keep time here, and so how to read sub-millisecond
// latencies.
func sleepLateP99MS() float64 {
	late := make([]float64, 200)
	start := time.Now()
	for i := range late {
		due := start.Add(time.Duration(i) * 2500 * time.Microsecond)
		time.Sleep(time.Until(due))
		late[i] = float64(time.Since(due)) / 1e6
	}
	return percentile(late, 0.99)
}
