package realexec

import (
	"repro/internal/engine"
	"repro/internal/mr"
)

// RunParked runs the job as Run does and also returns the sizes of the
// map outputs still parked in its scratch file when it returns.
func RunParked(job engine.JobSpec, newQuery func() mr.Query) (*engine.Report, []int64, error) {
	r, err := newRun(job, newQuery)
	if err != nil {
		return nil, nil, err
	}
	rep, err := r.execute()
	var parked []int64
	for i := range r.slots {
		for _, u := range r.slots[i].units {
			if u != nil && u.parked.Len() > 0 {
				parked = append(parked, u.parked.Len())
			}
		}
	}
	return rep, parked, err
}
