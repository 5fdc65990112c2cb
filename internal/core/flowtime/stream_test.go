package flowtime

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// streamInstance feeds the instance's jobs through a Session, optionally
// interleaving AdvanceTo calls between feeds.
func streamInstance(t *testing.T, ins *sched.Instance, opt Options, advance bool) *Result {
	t.Helper()
	s, err := NewSession(ins.Machines, opt)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ins.Jobs {
		if advance && k%3 == 0 {
			// Promise nothing earlier than this release will arrive, which
			// advances the simulation right up to the next arrival.
			if err := s.AdvanceTo(ins.Jobs[k].Release); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Feed(ins.Jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func equivInstances(t *testing.T) []*sched.Instance {
	t.Helper()
	var out []*sched.Instance
	for seed := int64(0); seed < 4; seed++ {
		cfg := workload.DefaultConfig(500, 5, seed)
		cfg.Load = 1.3
		out = append(out, workload.Random(cfg))
	}
	// Bursty bimodal: many equal releases and equal processing times, the
	// tie-break-heavy regime.
	cfg := workload.DefaultConfig(400, 4, 9)
	cfg.Sizes = workload.SizeBimodal
	cfg.Arrivals = workload.ArrivalsBursty
	cfg.BurstSize = 30
	cfg.Load = 1.5
	out = append(out, workload.Random(cfg))
	// Adversarial Lemma 1 family.
	out = append(out, workload.Lemma1Instance(10, 0.4))
	return out
}

// TestSessionMatchesRun is the streaming equivalence golden test: a Session
// fed one job at a time must produce an Outcome (intervals, completions,
// rejections, assignments) and rule counters bit-identical to the batch Run,
// with and without dual tracking, across several ε, with and without
// interleaved AdvanceTo calls.
func TestSessionMatchesRun(t *testing.T) {
	for n, ins := range equivInstances(t) {
		for _, opt := range []Options{
			{Epsilon: 0.2},
			{Epsilon: 0.2, TrackDual: true},
			{Epsilon: 0.4, TrackDual: true},
			{Epsilon: 0.1},
		} {
			batch, err := Run(ins, opt)
			if err != nil {
				t.Fatalf("instance %d: batch: %v", n, err)
			}
			for _, advance := range []bool{false, true} {
				stream := streamInstance(t, ins, opt, advance)
				if !reflect.DeepEqual(batch.Outcome, stream.Outcome) {
					t.Fatalf("instance %d opt %+v advance %v: streaming outcome diverges from batch", n, opt, advance)
				}
				if batch.Dispatches != stream.Dispatches ||
					batch.Rule1Rejections != stream.Rule1Rejections ||
					batch.Rule2Rejections != stream.Rule2Rejections {
					t.Fatalf("instance %d opt %+v advance %v: counters diverge", n, opt, advance)
				}
				if opt.TrackDual {
					if !reflect.DeepEqual(batch.Dual.Lambda, stream.Dual.Lambda) ||
						!reflect.DeepEqual(batch.Dual.CTilde, stream.Dual.CTilde) ||
						batch.Dual.BetaIntegral != stream.Dual.BetaIntegral {
						t.Fatalf("instance %d opt %+v advance %v: dual report diverges", n, opt, advance)
					}
				}
			}
		}
	}
}

// TestFeedBatchMatchesRun extends the equivalence matrix to the batched
// ingestion path: for every instance × option configuration, feeding the
// stream in random batch splits (FeedBatch) must reproduce the batch Run
// outcome and counters bit-for-bit — including splits landing between
// within-Eps releases, which the bursty instance provides.
func TestFeedBatchMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for n, ins := range equivInstances(t) {
		for _, opt := range []Options{
			{Epsilon: 0.2},
			{Epsilon: 0.2, TrackDual: true},
			{Epsilon: 0.4, TrackDual: true},
			{Epsilon: 0.1},
		} {
			batch, err := Run(ins, opt)
			if err != nil {
				t.Fatalf("instance %d: batch: %v", n, err)
			}
			for trial := 0; trial < 3; trial++ {
				s, err := NewSession(ins.Machines, opt)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(ins.Jobs); {
					hi := lo + 1 + rng.Intn(120)
					if hi > len(ins.Jobs) {
						hi = len(ins.Jobs)
					}
					if err := s.FeedBatch(ins.Jobs[lo:hi]); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
				stream, err := s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch.Outcome, stream.Outcome) {
					t.Fatalf("instance %d opt %+v: batched-split outcome diverges from Run", n, opt)
				}
				if batch.Dispatches != stream.Dispatches ||
					batch.Rule1Rejections != stream.Rule1Rejections ||
					batch.Rule2Rejections != stream.Rule2Rejections {
					t.Fatalf("instance %d opt %+v: counters diverge under batched feeding", n, opt)
				}
				if opt.TrackDual && !reflect.DeepEqual(batch.Dual.Lambda, stream.Dual.Lambda) {
					t.Fatalf("instance %d opt %+v: dual report diverges under batched feeding", n, opt)
				}
			}
		}
	}
}

// TestSessionFinalAdvance pins that AdvanceTo far beyond the horizon drains
// everything before Close, and Close still audits cleanly.
func TestSessionFinalAdvance(t *testing.T) {
	cfg := workload.DefaultConfig(200, 3, 2)
	cfg.Load = 1.4
	ins := workload.Random(cfg)
	s, err := NewSession(ins.Machines, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for k := range ins.Jobs {
		if err := s.Feed(ins.Jobs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AdvanceTo(1e12); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Run(ins, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Outcome, res.Outcome) {
		t.Fatal("outcome diverges after a final AdvanceTo")
	}
}

// TestDualTrackingWithinEpsReleases regresses the arrival-order/feed-order
// mismatch: Instance.Validate (and Session.Feed) admit releases that
// decrease within sched.Eps, so a later-fed job can pop first. The dense
// dual slices must be indexed by compact feed index, not arrival order —
// the tiny second job here completes before the first job's arrival pops,
// which used to read past the slice end.
func TestDualTrackingWithinEpsReleases(t *testing.T) {
	ins := &sched.Instance{
		Machines: 2,
		Jobs: []sched.Job{
			{ID: 0, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}},
			{ID: 1, Release: 1 - sched.Eps/2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1e-8, 3}},
			{ID: 2, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{2, 1}},
		},
	}
	if err := ins.Validate(); err != nil {
		t.Fatalf("instance must be valid: %v", err)
	}
	res, err := Run(ins, Options{Epsilon: 0.3, TrackDual: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 2} {
		if _, ok := res.Dual.Lambda[id]; !ok {
			t.Fatalf("dual report missing λ for job %d", id)
		}
		if res.Dual.CTilde[id] < ins.JobByID(id).Release {
			t.Fatalf("job %d: C̃ %v before release", id, res.Dual.CTilde[id])
		}
	}
	// λ must reflect each job's own dispatch: job 1's tiny processing time
	// gives it the smallest λ by orders of magnitude, so a permutation of
	// the dense slices would misattribute it.
	if !(res.Dual.Lambda[1] < res.Dual.Lambda[0] && res.Dual.Lambda[1] < res.Dual.Lambda[2]) {
		t.Fatalf("λ misattributed across within-Eps arrivals: %v", res.Dual.Lambda)
	}
}

func TestSessionRejectsOutOfOrderFeed(t *testing.T) {
	s, err := NewSession(2, Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(sched.Job{ID: 0, Release: 5, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(sched.Job{ID: 1, Release: 1, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1, 2}}); err == nil {
		t.Fatal("out-of-order release accepted")
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
