package speedscale

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSessionMatchesRun pins streaming/batch equivalence for the §3
// algorithm: identical outcomes (including speeds), rejection counters and
// dual records, with and without dual tracking, across several ε, with
// and without interleaved AdvanceTo calls. Sessions need an explicit Alpha;
// the batch run uses the same value so both resolve identical γ.
func TestSessionMatchesRun(t *testing.T) {
	var instances []*sched.Instance
	for seed := int64(0); seed < 4; seed++ {
		cfg := workload.DefaultConfig(400, 4, seed)
		cfg.Load = 1.2
		cfg.Weighted = true
		ins := workload.Random(cfg)
		ins.Alpha = 2
		instances = append(instances, ins)
	}
	cfg := workload.DefaultConfig(300, 3, 9)
	cfg.Sizes = workload.SizeBimodal
	cfg.Arrivals = workload.ArrivalsBursty
	cfg.BurstSize = 20
	cfg.Load = 1.5
	cfg.Weighted = true
	ins := workload.Random(cfg)
	ins.Alpha = 3
	instances = append(instances, ins)

	for n, ins := range instances {
		for _, opt := range []Options{
			{Epsilon: 0.3, Alpha: ins.Alpha},
			{Epsilon: 0.3, Alpha: ins.Alpha, TrackDual: true},
			{Epsilon: 0.15, Alpha: ins.Alpha},
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
					if advance && k%5 == 0 {
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
				if batch.Rejections != stream.Rejections ||
					batch.RejectedWeight != stream.RejectedWeight ||
					batch.Gamma != stream.Gamma || batch.Alpha != stream.Alpha {
					t.Fatalf("instance %d opt %+v advance %v: counters diverge", n, opt, advance)
				}
				if opt.TrackDual && !reflect.DeepEqual(batch.Dual.Lambda, stream.Dual.Lambda) {
					t.Fatalf("instance %d opt %+v advance %v: dual λ diverges", n, opt, advance)
				}
			}
		}
	}
}

// TestDualTrackingWithinEpsReleases regresses the arrival-order/feed-order
// mismatch (cf. the flowtime test of the same name): a later-fed job whose
// release is smaller within sched.Eps pops first and completes before the
// first job's arrival; the dual snapshot slice must be indexed by compact
// feed index.
func TestDualTrackingWithinEpsReleases(t *testing.T) {
	ins := &sched.Instance{
		Machines: 2,
		Alpha:    2,
		Jobs: []sched.Job{
			{ID: 0, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}},
			{ID: 1, Release: 1 - sched.Eps/2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1e-8, 3}},
			{ID: 2, Release: 2, Weight: 2, Deadline: sched.NoDeadline, Proc: []float64{2, 1}},
		},
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("instance must be valid: %v", err)
	}
	res, err := Run(ins, Options{Epsilon: 0.3, TrackDual: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dual.Lambda) != 3 {
		t.Fatalf("dual report has %d λ entries, want 3", len(res.Dual.Lambda))
	}
	if v := res.Dual.MonotoneV(ins, 16); v != nil {
		t.Fatalf("dual execution records corrupted: %v", v)
	}
}

// TestSessionRequiresExplicitAlpha pins the streaming-specific contract.
func TestSessionRequiresExplicitAlpha(t *testing.T) {
	if _, err := NewSession(2, Options{Epsilon: 0.3}); err == nil {
		t.Fatal("session without Alpha accepted")
	}
}
