package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseSWF reads a trace in the Standard Workload Format used by the
// Parallel Workloads Archive — the format real cluster logs (including
// the LANL traces the paper replays) are published in. Each
// non-comment line has 18 whitespace-separated fields; the ones the
// simulator needs are:
//
//	field  1: job number
//	field  2: submit time (s)
//	field  4: run time (s)
//	field  5: number of allocated processors
//
// Jobs with unknown (-1) runtime or processor counts are skipped, as are
// header comment lines starting with ';'. Processor counts are converted
// to node counts with procsPerNode (pass the traced machine's cores per
// node; 0 treats each processor as a node).
func ParseSWF(r io.Reader, procsPerNode int) ([]Job, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var jobs []Job
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("trace: swf line %d: %d fields, want >= 5", lineNo, len(fields))
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: swf line %d: bad job number: %w", lineNo, err)
		}
		submit, err := parseSeconds(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: swf line %d: bad submit time: %w", lineNo, err)
		}
		runtime, err := parseSeconds(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: swf line %d: bad run time: %w", lineNo, err)
		}
		procs, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("trace: swf line %d: bad processor count: %w", lineNo, err)
		}
		if runtime <= 0 || procs <= 0 {
			// Cancelled or malformed records; the archive marks
			// unknowns with -1.
			continue
		}
		nodes := procs
		if procsPerNode > 1 {
			nodes = (procs + procsPerNode - 1) / procsPerNode
		}
		jobs = append(jobs, Job{
			ID:         id,
			SubmitSec:  submit,
			Nodes:      nodes,
			RuntimeSec: runtime,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return jobs, nil
}

// parseSeconds reads a time column. strconv.ParseFloat also accepts
// NaN and ±Inf, which no event clock can schedule, so those are errors
// here.
func parseSeconds(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("%q is not a finite number of seconds", field)
	}
	return v, err
}
