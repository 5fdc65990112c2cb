package repro

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// goldenParams are the per-policy session parameters of the outcome and
// resize goldens, the front door's defaults; srpt and wsrpt take none.
var goldenParams = map[string]core.Params{
	"flowtime":   {Epsilon: 0.2},
	"wflow":      {Epsilon: 0.25},
	"speedscale": {Epsilon: 0.3, Alpha: 2},
}

// TestDenseOutcomeGoldens pins the dense outcome-recording path (the
// engine's flat state/when/machine arrays, materialized into Outcome maps at
// Close) across all five policies at once: a straight full-feed session is
// the golden, and both a batch-split feed — the job slice cut into several
// FeedBatch calls — and a kill-resume run — snapshot after the first cut,
// restore into a fresh session, feed the rest — must reproduce its Outcome
// bit-identically. The per-policy equivalence suites cover these paths in
// more depth individually; this test exists so a change to the shared
// recording path cannot pass by fixing one policy and regressing another.
func TestDenseOutcomeGoldens(t *testing.T) {
	const m = 4
	cfg := workload.DefaultConfig(600, m, 21)
	cfg.Load = 1.2
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 2 // speedscale needs a power exponent; the others ignore it

	// Split points for the batch-split feed and the checkpoint cut; jobs are
	// release-sorted, so any slice boundary is a legal FeedBatch boundary.
	splits := []int{0, 113, 250, 251, 480, len(ins.Jobs)}

	for _, pol := range core.Policies() {
		p := goldenParams[pol.Name]
		open := func(restore io.Reader) (*core.Session, error) { return pol.Open(m, p, restore) }
		t.Run(pol.Name, func(t *testing.T) {
			// Golden: one session, one FeedBatch.
			s, err := open(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.FeedBatch(ins.Jobs); err != nil {
				t.Fatal(err)
			}
			golden, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(golden.Completed)+len(golden.Rejected) != len(ins.Jobs) {
				t.Fatalf("golden accounts %d+%d jobs, want %d",
					len(golden.Completed), len(golden.Rejected), len(ins.Jobs))
			}

			// Batch-split: the same jobs across several FeedBatch calls.
			s, err = open(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(splits); i++ {
				if err := s.FeedBatch(ins.Jobs[splits[i-1]:splits[i]]); err != nil {
					t.Fatalf("split %d: %v", i, err)
				}
			}
			split, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden, split) {
				t.Fatal("batch-split outcome diverges from the golden")
			}

			// Kill-resume: checkpoint mid-stream, restore, feed the rest.
			cut := splits[2]
			s, err = open(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.FeedBatch(ins.Jobs[:cut]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			rs, err := open(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			resumed, err := rs.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(golden, resumed) {
				t.Fatal("kill-resume outcome diverges from the golden")
			}
		})
	}
}
