package flowtime

import (
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestRule1ZeroElapsedRejection: two dispatches at the exact instant a job
// starts reject it before it performs any work — the outcome must contain no
// execution interval for it.
func TestRule1ZeroElapsedRejection(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{10}},
		{ID: 1, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{20}},
		{ID: 2, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{30}},
	}}
	res := mustRun(t, ins, Options{Epsilon: 0.9}) // Rule 1 threshold 2
	if _, ok := res.Outcome.Rejected[0]; !ok {
		t.Fatalf("job 0 should be rejected at t=0: %v", res.Outcome.Rejected)
	}
	for _, iv := range res.Outcome.Intervals {
		if iv.Job == 0 {
			t.Fatalf("zero-elapsed rejection must leave no interval, got %+v", iv)
		}
	}
}

// TestRule2EmptyPending: the Rule 2 counter can reach its threshold with an
// empty queue (every dispatch started immediately); nothing is rejected and
// the counter resets.
func TestRule2EmptyPending(t *testing.T) {
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{
		{ID: 0, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 1, Release: 2, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 2, Release: 4, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 3, Release: 6, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 4, Release: 8, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
		{ID: 5, Release: 10, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{1}},
	}}
	res := mustRun(t, ins, Options{Epsilon: 0.5}) // Rule 2 threshold 3
	if res.Outcome.RejectedCount() != 0 {
		t.Fatalf("idle-machine stream must reject nothing: %v", res.Outcome.Rejected)
	}
	if len(res.Outcome.Completed) != 6 {
		t.Fatalf("completed %d/6", len(res.Outcome.Completed))
	}
}

// TestTinyEpsilonNeverRejects: ε small enough that thresholds exceed n means
// no rejections and pure λ-dispatch SPT behaviour.
func TestTinyEpsilonNeverRejects(t *testing.T) {
	cfg := workload.DefaultConfig(50, 2, 3)
	cfg.Load = 2
	ins := workload.Random(cfg)
	res := mustRun(t, ins, Options{Epsilon: 0.01}) // thresholds 100, 101 > 50
	if res.Outcome.RejectedCount() != 0 {
		t.Fatalf("thresholds exceed n; nothing can be rejected, got %d", res.Outcome.RejectedCount())
	}
}

// TestDualCheckerDetectsViolations: corrupting λ must flip the Lemma 4
// feasibility audit — otherwise the audit is vacuous.
func TestDualCheckerDetectsViolations(t *testing.T) {
	cfg := workload.DefaultConfig(60, 2, 5)
	cfg.Load = 1.2
	ins := workload.Random(cfg)
	res := mustRun(t, ins, Options{Epsilon: 0.4, TrackDual: true})
	if v := res.Dual.CheckFeasibility(ins, 8); v.Excess > 1e-7 {
		t.Fatalf("genuine dual infeasible: %v", v)
	}
	// Inflate one λ_j beyond any feasible value.
	for id := range res.Dual.Lambda {
		res.Dual.Lambda[id] *= 100
		break
	}
	if v := res.Dual.CheckFeasibility(ins, 8); v.Excess <= 0 {
		t.Fatal("checker failed to detect a corrupted dual solution")
	}
}

// TestLambdaMatchesBruteForceEvaluation checks every dispatch against a
// plain-slice recomputation of the §2 rule. For each arrival j it rebuilds
// each machine's pending set from the recorded outcome — jobs assigned
// there, released earlier, and neither started nor rejected before r_j —
// evaluates λ_ij = p_ij/ε + Σ_{ℓ⪯j} p_iℓ + |{ℓ≻j}|·p_ij over it, and
// asserts that j went to the lowest-index strict minimiser and that the
// dual records λ_j = ε/(1+ε)·min_i λ_ij.
func TestLambdaMatchesBruteForceEvaluation(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		seed int64
		load float64
		eps  float64
	}{
		{80, 2, 11, 1.6, 0.3},
		{300, 4, 5, 1.8, 0.6},
	} {
		cfg := workload.DefaultConfig(tc.n, tc.m, tc.seed)
		cfg.Load = tc.load
		ins := workload.Random(cfg)
		// Distinct releases make "before r_j" unambiguous: every start or
		// rejection at exactly r_j is then a consequence of j's own arrival,
		// after λ was evaluated.
		for k := 1; k < len(ins.Jobs); k++ {
			if !(ins.Jobs[k].Release > ins.Jobs[k-1].Release) {
				t.Fatalf("instance %+v: releases %d and %d not strictly increasing", tc, k-1, k)
			}
		}
		res := mustRun(t, ins, Options{Epsilon: tc.eps, TrackDual: true})
		out := res.Outcome
		if res.Rule1Rejections == 0 || res.Rule2Rejections == 0 {
			t.Fatalf("instance %+v: want both rejection rules exercised, got %d/%d",
				tc, res.Rule1Rejections, res.Rule2Rejections)
		}

		// leave[id]: when the job stopped being pending — its first start,
		// or its rejection time if it never ran (Rule 2, or a zero-elapsed
		// Rule 1 rejection).
		leave := make(map[int]float64, len(ins.Jobs))
		for id, at := range out.Rejected {
			leave[id] = at
		}
		for _, iv := range out.Intervals {
			if at, ok := leave[iv.Job]; !ok || iv.Start < at {
				leave[iv.Job] = iv.Start
			}
		}

		queued := 0
		lambda := make([]float64, tc.m)
		for k := range ins.Jobs {
			j := &ins.Jobs[k]
			for i := range lambda {
				pj := j.Proc[i]
				before, after := pj, 0 // Σ_{ℓ⪯j} includes j itself
				for _, l := range ins.Jobs[:k] {
					if out.Assigned[l.ID] != i || leave[l.ID] < j.Release {
						continue
					}
					queued++
					pl := l.Proc[i]
					if pl < pj || pl == pj && (l.Release < j.Release || l.Release == j.Release && l.ID < j.ID) {
						before += pl
					} else {
						after++
					}
				}
				lambda[i] = pj/tc.eps + before + float64(after)*pj
			}
			best := 0
			for i := range lambda {
				if lambda[i] < lambda[best] {
					best = i
				}
			}
			if got := out.Assigned[j.ID]; got != best {
				t.Fatalf("instance %+v: job %d went to machine %d, brute-force argmin is %d (λ = %v)",
					tc, j.ID, got, best, lambda)
			}
			want := tc.eps / (1 + tc.eps) * lambda[best]
			if got := res.Dual.Lambda[j.ID]; math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("instance %+v: λ_%d = %v, brute force %v", tc, j.ID, got, want)
			}
		}
		if queued == 0 {
			t.Fatalf("instance %+v: no arrival saw a pending job; the check is vacuous", tc)
		}
	}
}

// TestIdenticalMachinesSymmetry: with identical machines and simultaneous
// identical jobs, flow must match a hand-computable round-robin split.
func TestIdenticalMachinesSymmetry(t *testing.T) {
	jobs := make([]sched.Job, 4)
	for i := range jobs {
		jobs[i] = sched.Job{ID: i, Release: 0, Weight: 1, Deadline: sched.NoDeadline, Proc: []float64{2, 2}}
	}
	ins := &sched.Instance{Machines: 2, Jobs: jobs}
	res := mustRun(t, ins, Options{Epsilon: 0.1})
	m, err := sched.ComputeMetrics(ins, res.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	// 2 jobs per machine: flows 2, 4 each machine → total 12.
	if math.Abs(m.TotalFlow-12) > 1e-9 {
		t.Fatalf("flow %v, want 12 (2+4 per machine)", m.TotalFlow)
	}
}

// TestHeavyTailStress: a few elephants in a mouse stream exercise both
// rejection rules and the full dual bookkeeping without invariant failures.
func TestHeavyTailStress(t *testing.T) {
	cfg := workload.DefaultConfig(1000, 3, 123)
	cfg.Sizes = workload.SizeBimodal
	cfg.MinSize = 0.5
	cfg.MaxSize = 500
	cfg.Load = 1.3
	ins := workload.Random(cfg)
	res := mustRun(t, ins, Options{Epsilon: 0.25, TrackDual: true})
	integral, ctsum := res.Dual.OccupancyIdentity(ins)
	if math.Abs(integral-ctsum) > 1e-6*(1+ctsum) {
		t.Fatalf("occupancy identity broke under stress: %v vs %v", integral, ctsum)
	}
	if v := res.Dual.CheckFeasibility(ins, 4); v.Excess > 1e-7 {
		t.Fatalf("dual infeasible under stress: %v", v)
	}
}
