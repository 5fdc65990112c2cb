package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core/flowtime"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID: "E10", Kind: "table",
		Title: "Scheduler overhead: dispatch cost scaling",
		Claim: "design: each arrival dispatches with m rank queries on the flat order-statistic index",
		Run:   runE10,
	})
}

func runE10(cfg Config) (fmt.Stringer, error) {
	sizes := []int{1000, 10000, 50000}
	if cfg.Quick {
		sizes = []int{500, 2000}
	}
	t := stats.NewTable("E10 — flow-time scheduler overhead (m=8, ε=0.2)",
		"jobs", "wall ms", "ns/job", "allocs/job", "events ok")
	for _, n := range sizes {
		c := workload.DefaultConfig(n, 8, 3)
		c.Load = 1.1
		ins := workload.Random(c)
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		res, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2})
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		runtime.ReadMemStats(&msAfter)
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
			return nil, fmt.Errorf("E10: invalid outcome at n=%d: %w", n, err)
		}
		allocs := float64(msAfter.Mallocs - msBefore.Mallocs)
		t.AddRowf(n, float64(el.Milliseconds()),
			float64(el.Nanoseconds())/float64(n),
			allocs/float64(n),
			okMark(len(res.Outcome.Completed)+len(res.Outcome.Rejected) == n))
	}
	return t, nil
}
