package wflow

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSessionMatchesRun pins streaming/batch equivalence for the weighted
// extension: identical outcomes, rule counters and rejected weight, across
// random, bursty-tie-heavy and weighted workloads, at two ε, with and
// without interleaved AdvanceTo calls.
func TestSessionMatchesRun(t *testing.T) {
	var instances []*sched.Instance
	for seed := int64(0); seed < 4; seed++ {
		cfg := workload.DefaultConfig(500, 5, seed)
		cfg.Load = 1.3
		cfg.Weighted = true
		instances = append(instances, workload.Random(cfg))
	}
	cfg := workload.DefaultConfig(400, 4, 9)
	cfg.Sizes = workload.SizeBimodal
	cfg.Arrivals = workload.ArrivalsBursty
	cfg.BurstSize = 25
	cfg.Load = 1.5
	cfg.Weighted = true
	instances = append(instances, workload.Random(cfg))

	for n, ins := range instances {
		for _, opt := range []Options{
			{Epsilon: 0.2},
			{Epsilon: 0.35},
		} {
			batch, err := Run(ins, opt)
			if err != nil {
				t.Fatalf("instance %d: batch: %v", n, err)
			}
			for _, advance := range []bool{false, true} {
				s, err := NewSession(ins.Machines, opt)
				if err != nil {
					t.Fatal(err)
				}
				for k := range ins.Jobs {
					if advance && k%4 == 0 {
						if err := s.AdvanceTo(ins.Jobs[k].Release); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Feed(ins.Jobs[k]); err != nil {
						t.Fatal(err)
					}
				}
				stream, err := s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch.Outcome, stream.Outcome) {
					t.Fatalf("instance %d opt %+v advance %v: streaming outcome diverges from batch", n, opt, advance)
				}
				if batch.Rule1Rejections != stream.Rule1Rejections ||
					batch.Rule2Rejections != stream.Rule2Rejections ||
					batch.RejectedWeight != stream.RejectedWeight {
					t.Fatalf("instance %d opt %+v advance %v: counters diverge", n, opt, advance)
				}
			}
		}
	}
}
