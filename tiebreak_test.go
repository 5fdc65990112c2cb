package repro

import (
	"reflect"
	"testing"

	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/sched"
)

// TestDispatchTiesGoToLowestMachine pins the argmin tie-break of every
// dispatching policy: on identical machines, simultaneous identical jobs see
// exactly equal dispatch values, and each tie must go to the lowest machine
// index.
//
// The λ policies (flowtime, wflow, speedscale) price only the jobs waiting
// on a machine, not the running one, so the first two jobs tie on all three
// machines and both land on machine 0; the next two tie on machines 1 and 2,
// and so on. SRPT's cost includes the running remainder, so its ties form a
// round robin from machine 0.
func TestDispatchTiesGoToLowestMachine(t *testing.T) {
	jobs := make([]sched.Job, 6)
	for k := range jobs {
		jobs[k] = sched.Job{ID: k, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{2, 2, 2}}
	}
	ins := &sched.Instance{Machines: 3, Alpha: 2, Jobs: jobs}
	paired := []int{0, 0, 1, 1, 2, 2}
	for _, tc := range []struct {
		name string
		run  func() (*sched.Outcome, error)
		want []int
	}{
		{"flowtime", func() (*sched.Outcome, error) {
			r, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}, paired},
		{"wflow", func() (*sched.Outcome, error) {
			r, err := wflow.Run(ins, wflow.Options{Epsilon: 0.2})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}, paired},
		{"speedscale", func() (*sched.Outcome, error) {
			r, err := speedscale.Run(ins, speedscale.Options{Epsilon: 0.2})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}, paired},
		{"srpt", func() (*sched.Outcome, error) {
			r, err := srpt.Run(ins, srpt.Options{})
			if err != nil {
				return nil, err
			}
			return r.Outcome, nil
		}, []int{0, 1, 2, 0, 1, 2}},
	} {
		out, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(out.Rejected) != 0 {
			t.Fatalf("%s: rejected %v; the tie-break check needs every job kept", tc.name, out.Rejected)
		}
		got := make([]int, len(jobs))
		for k := range jobs {
			got[k] = out.Assigned[k]
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: jobs went to machines %v, want %v (ties to the lowest index)", tc.name, got, tc.want)
		}
	}
}
