package speedscale

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
		cfg := workload.DefaultConfig(400, 4, seed)
		cfg.Load = 1.2
		cfg.Weighted = true
		ins := workload.Random(cfg)
		ins.Alpha = 2
		out = append(out, ins)
	}
	cfg := workload.DefaultConfig(300, 3, 9)
	cfg.Sizes = workload.SizeBimodal
	cfg.Arrivals = workload.ArrivalsBursty
	cfg.BurstSize = 20
	cfg.Load = 1.5
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 3
	out = append(out, ins)
	return out
}

// TestSnapshotResumeMatchesRun is the checkpoint/restore golden test of the
// §3 speed-scaling scheduler, with and without dual tracking: resumed runs
// must reproduce the uninterrupted Result bit-for-bit — outcome (intervals
// carry frozen speeds, the most rounding-sensitive state in the repo),
// rejection tallies, and the dual execution records.
func TestSnapshotResumeMatchesRun(t *testing.T) {
	for n, ins := range resumeInstances() {
		for _, opt := range []Options{
			{Epsilon: 0.3, Alpha: ins.Alpha},
			{Epsilon: 0.3, Alpha: ins.Alpha, TrackDual: true},
			{Epsilon: 0.15, Alpha: ins.Alpha, Gamma: 0.5},
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
				if batch.Rejections != res.Rejections || batch.RejectedWeight != res.RejectedWeight ||
					batch.Gamma != res.Gamma || batch.Alpha != res.Alpha {
					t.Fatalf("instance %d cut %d: resumed result fields diverge", n, cut)
				}
				if opt.TrackDual {
					if !reflect.DeepEqual(batch.Dual.Lambda, res.Dual.Lambda) {
						t.Fatalf("instance %d cut %d: resumed dual λ diverges", n, cut)
					}
					// The exec records drive the Lemma 6 audit: every record
					// must match field-for-field. (V itself sums over a map,
					// whose random iteration order reassociates the float
					// sum, so it is not a bit-stable observable even across
					// two calls on the same report.)
					if len(batch.Dual.execs) != len(res.Dual.execs) {
						t.Fatalf("instance %d cut %d: %d dual records resumed, %d batch", n, cut, len(res.Dual.execs), len(batch.Dual.execs))
					}
					for id, be := range batch.Dual.execs {
						re, ok := res.Dual.execs[id]
						if !ok || *be != *re {
							t.Fatalf("instance %d cut %d: dual record for job %d diverges (%+v vs %+v)", n, cut, id, re, be)
						}
					}
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

// TestRestoreRejectsConfigMismatch pins the (ε, α, γ) echo guard: γ scales
// every execution speed, so resuming under a different resolved γ would be a
// silent semantic fork.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	ins := resumeInstances()[0]
	s, err := NewSession(ins.Machines, Options{Epsilon: 0.3, Alpha: 2})
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
	for _, opt := range []Options{
		{Epsilon: 0.2, Alpha: 2},            // ε differs
		{Epsilon: 0.3, Alpha: 2.5},          // α differs (and with it the default γ)
		{Epsilon: 0.3, Alpha: 2, Gamma: 42}, // explicit γ differs
	} {
		if _, err := Restore(bytes.NewReader(buf.Bytes()), opt); err == nil ||
			!strings.Contains(err.Error(), "snapshot taken with") {
			t.Fatalf("config mismatch %+v accepted: %v", opt, err)
		}
	}
}
