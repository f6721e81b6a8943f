package svc

import "spreadnshare/internal/sim"

// Driver is the admission loop the trace replay and the daemon share:
// it files pending completions and applies the rule for one instant t,
// a scheduling pass at every arrival and every completion (the paper's
// Uberun). Arrivals at t come first, each batch followed by one round
// at t; completions at t come next, in filing order, each followed by
// one round at t. An input source therefore calls Advance(t), submits
// the arrivals at t, and calls Round(t). Like the core, a Driver
// belongs to one goroutine.
type Driver struct {
	core  *Cluster
	model RuntimeModel
	fin   sim.Queue // completions by (finish, filing order)
}

// NewDriver wraps a core and files the completion of every job it
// already runs, in job-ID order (the restore path).
func NewDriver(core *Cluster, model RuntimeModel) *Driver {
	d := &Driver{core: core, model: model}
	core.Each(func(j *Job) {
		if j.State == Running {
			d.file(j)
		}
	})
	return d
}

// Round runs one admission round at now and files each placed job's
// completion at its FinishSec.
func (d *Driver) Round(now float64) {
	for _, j := range d.core.ScheduleRound(now, d.model) {
		d.file(j)
	}
}

// Advance fires every filed completion strictly before t, in filing
// order among equal finishes. A job still running completes at its own
// finish and one round runs there; a job cancelled while running is
// dropped with no round.
func (d *Driver) Advance(t float64) {
	for at, ok := d.fin.Next(); ok && at < t; at, ok = d.fin.Next() {
		d.fin.Step()
	}
}

// Next returns the earliest filed finish; false when none is filed.
func (d *Driver) Next() (float64, bool) { return d.fin.Next() }

func (d *Driver) file(j *Job) {
	d.fin.At(j.FinishSec, func() {
		if j.State != Running {
			return
		}
		now := d.fin.Now()
		if err := d.core.Complete(j.ID, now); err != nil {
			panic(err) // checked running above
		}
		d.Round(now)
	})
}
