package wflow

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func resumeInstances() []*sched.Instance {
	var out []*sched.Instance
	for seed := int64(0); seed < 3; seed++ {
		cfg := workload.DefaultConfig(500, 5, seed)
		cfg.Load = 1.3
		cfg.Weighted = true
		out = append(out, workload.Random(cfg))
	}
	cfg := workload.DefaultConfig(400, 4, 9)
	cfg.Sizes = workload.SizeBimodal
	cfg.Arrivals = workload.ArrivalsBursty
	cfg.BurstSize = 25
	cfg.Load = 1.5
	cfg.Weighted = true
	out = append(out, workload.Random(cfg))
	return out
}

// TestSnapshotResumeMatchesRun is the checkpoint/restore golden test of the
// weighted scheduler: snapshot a streaming session at several watermarks,
// restore in a fresh session, feed the remainder, and the final Result must
// be bit-identical to an uninterrupted batch Run — rejection counters and
// weight budget included. The donor keeps feeding after each snapshot and
// must finish identically (Snapshot is read-only).
func TestSnapshotResumeMatchesRun(t *testing.T) {
	for n, ins := range resumeInstances() {
		for _, opt := range []Options{
			{Epsilon: 0.2},
			{Epsilon: 0.4},
		} {
			batch, err := Run(ins, opt)
			if err != nil {
				t.Fatalf("instance %d: batch: %v", n, err)
			}
			for _, frac := range []float64{0.3, 0.7} {
				cut := int(frac * float64(len(ins.Jobs)))
				donor, err := NewSession(ins.Machines, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := donor.Snapshot(&buf); err != nil {
					t.Fatalf("instance %d cut %d: snapshot: %v", n, cut, err)
				}

				resumed, err := Restore(bytes.NewReader(buf.Bytes()), opt)
				if err != nil {
					t.Fatalf("instance %d cut %d: restore: %v", n, cut, err)
				}
				if err := resumed.FeedBatch(ins.Jobs[cut:]); err != nil {
					t.Fatal(err)
				}
				res, err := resumed.Close()
				if err != nil {
					t.Fatalf("instance %d cut %d: close resumed: %v", n, cut, err)
				}
				if !reflect.DeepEqual(batch.Outcome, res.Outcome) {
					t.Fatalf("instance %d opt %+v cut %d: resumed outcome diverges from uninterrupted run", n, opt, cut)
				}
				if batch.Rule1Rejections != res.Rule1Rejections ||
					batch.Rule2Rejections != res.Rule2Rejections ||
					batch.RejectedWeight != res.RejectedWeight {
					t.Fatalf("instance %d cut %d: resumed counters diverge", n, cut)
				}

				if err := donor.FeedBatch(ins.Jobs[cut:]); err != nil {
					t.Fatal(err)
				}
				dres, err := donor.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch.Outcome, dres.Outcome) {
					t.Fatalf("instance %d cut %d: Snapshot perturbed the donor", n, cut)
				}
			}
		}
	}
}

// TestRestoreRejectsEpsilonMismatch pins the option-echo guard.
func TestRestoreRejectsEpsilonMismatch(t *testing.T) {
	ins := resumeInstances()[0]
	s, err := NewSession(ins.Machines, Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedBatch(ins.Jobs[:50]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Restore(bytes.NewReader(buf.Bytes()), Options{Epsilon: 0.25}); err == nil ||
		!strings.Contains(err.Error(), "snapshot taken with") {
		t.Fatalf("ε mismatch accepted: %v", err)
	}
}
