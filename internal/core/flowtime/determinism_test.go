package flowtime

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestDualTrackingDoesNotChangeOutcome pins the invariant that the dual
// bookkeeping (skipped entirely when TrackDual is off) never influences a
// scheduling decision.
func TestDualTrackingDoesNotChangeOutcome(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := workload.DefaultConfig(500, 4, seed)
		cfg.Load = 1.4
		ins := workload.Random(cfg)
		plain, err := Run(ins, Options{Epsilon: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		tracked, err := Run(ins, Options{Epsilon: 0.2, TrackDual: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Outcome, tracked.Outcome) {
			t.Fatalf("seed %d: TrackDual changed the outcome", seed)
		}
	}
}
