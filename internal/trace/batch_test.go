package trace

import (
	"math"
	"strings"
	"testing"
)

// burstyTrace synthesizes a trace and quantizes its submission times so
// many jobs share each timestamp — the arrival shape batched admission
// coalesces. Quantization preserves the sort order.
func burstyTrace(seed int64, jobs int, stepSec float64) []Job {
	t := Synthesize(seed, GenConfig{Jobs: jobs, SpanHours: 24, MaxNodes: 16})
	MapPrograms(seed, t, []string{"MG", "BW"}, []string{"HC", "EP"}, 0.7)
	for i := range t {
		t[i].SubmitSec = math.Floor(t[i].SubmitSec/stepSec) * stepSec
	}
	return t
}

func TestSimConfigValidate(t *testing.T) {
	db, node := traceDB(t)
	jobs := burstyTrace(7, 10, 600)
	base := DefaultSimConfig(64, SNS)

	if err := base.Validate(jobs, db, node); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	ceNoDB := DefaultSimConfig(64, CE)
	if err := ceNoDB.Validate(jobs, nil, node); err != nil {
		t.Fatalf("CE must not need a profile DB: %v", err)
	}

	mod := func(f func(*SimConfig)) SimConfig { c := base; f(&c); return c }
	cases := []struct {
		name string
		cfg  SimConfig
		jobs []Job
		db   bool
		want string
	}{
		{"zero nodes", mod(func(c *SimConfig) { c.ClusterNodes = 0 }), jobs, true, "cluster needs nodes"},
		{"bad cores", mod(func(c *SimConfig) { c.CoresPerJobNode = 99 }), jobs, true, "CoresPerJobNode"},
		{"negative scan", mod(func(c *SimConfig) { c.ScanDepth = -1 }), jobs, true, "scan depth"},
		{"no jobs", base, nil, true, "no jobs"},
		{"nil db", base, jobs, false, "profile DB is nil"},
		{"zero max scale", mod(func(c *SimConfig) { c.MaxScale = 0 }), jobs, true, "MaxScale"},
		{"bad alpha", mod(func(c *SimConfig) { c.Alpha = 1.5 }), jobs, true, "Alpha"},
		{"NaN alpha", mod(func(c *SimConfig) { c.Alpha = math.NaN() }), jobs, true, "Alpha"},
	}
	for _, tc := range cases {
		d := db
		if !tc.db {
			d = nil
		}
		err := tc.cfg.Validate(tc.jobs, d, node)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
