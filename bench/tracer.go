package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that was open when this one began (-1 at the root), Rep
// the traced repetition it belongs to, Start/End nanoseconds since the
// tracer's epoch.
type span struct {
	Name       string
	Parent     int32
	Rep        int32
	Start, End int64
}

// tracer records spans from one goroutine: begin pushes onto an open
// stack, end pops. Everything stays in memory until the run ends; the
// layers themselves are never touched, so the deterministic packages
// keep their no-clock rule. A nil tracer records nothing, so one code
// path serves the traced and the untraced form of a loop.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	rep   int32
}

// newTracer starts a tracer for traced repetition rep; every tracer of
// a run shares the run's epoch.
func newTracer(epoch time.Time, rep int) *tracer {
	return &tracer{epoch: epoch, rep: int32(rep)}
}

// ms converts span nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep})
	t.open = append(t.open, id)
	t.spans[id].Start = t.now()
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: end(%d) does not match the open span stack %v", id, t.open))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = end
}

// endAs closes a span under a name only known at its end (a placement
// attempt is place_ok or place_fail once Place has returned).
func (t *tracer) endAs(id int32, name string) {
	t.end(id)
	t.spans[id].Name = name
}

// leaf records an already-measured interval as a child of the innermost
// open span (the per-operation phases of a load client, timed by the
// client itself).
func (t *tracer) leaf(name string, start, end int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Rep: t.rep, Start: start, End: end})
}

// spanTotals is the per-name account of a span list.
type spanTotals struct {
	// Self is the summed self time in ns: each span's duration minus
	// the part its child spans cover.
	Self map[string]int64
	// Calls counts spans.
	Calls map[string]int64
}

// totals computes each name's summed self time and call count.
func totals(spans []span) spanTotals {
	out := spanTotals{Self: map[string]int64{}, Calls: map[string]int64{}}
	for _, s := range spans {
		d := s.End - s.Start
		out.Self[s.Name] += d
		out.Calls[s.Name]++
		if s.Parent >= 0 {
			out.Self[spans[s.Parent].Name] -= d
		}
	}
	return out
}

// mergeSpans concatenates span lists recorded by separate tracers,
// shifting parent indexes to the combined list.
func mergeSpans(lists ...[]span) []span {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]span, 0, n)
	for _, l := range lists {
		base := int32(len(out))
		for _, s := range l {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// durations returns the duration in ns of every span of the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeSpans dumps spans as JSON: a name table plus one
// [name, parent, rep, start_ns, end_ns] row per span, which keeps a
// few hundred thousand spans to a few megabytes.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	index := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := index[s.Name]; !ok {
			index[s.Name] = len(names)
			names = append(names, s.Name)
		}
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"columns\":[\"name\",\"parent\",\"rep\",\"start_ns\",\"end_ns\"],\"names\":[", workload, seed)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"spans\":[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", index[s.Name], s.Parent, s.Rep, s.Start, s.End)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
