package engine

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// preemptResume is a scripted test policy for the Preempt/Resume primitive:
// every arrival dispatches to machine 0, preempting whatever runs there and
// banking its remaining volume. When machine 0 goes idle, the most recently
// banked job resumes on machine resumeOn — same machine, or a different one
// with the volume rescaled to the new machine's processing time. scale
// corrupts the resumed volume (1 = faithful) so tests can prove the
// conservation audit catches lost or duplicated work.
type preemptResume struct {
	c        *Core
	resumeOn int
	scale    float64
	banked   []banked
}

type banked struct {
	jk  int
	rem float64 // remaining volume in machine-0 units
}

func (p *preemptResume) Bind(c *Core) { p.c = c }

func (p *preemptResume) OnArrival(t float64, jk int) {
	p.c.Assign(jk, 0)
	if !p.c.Machine(0).Idle() {
		vk, rem := p.c.Preempt(0, t)
		p.banked = append(p.banked, banked{jk: vk, rem: rem})
	}
	p.c.Start(0, t, jk, p.c.Job(jk).Proc[0], 1)
}

func (p *preemptResume) OnIdle(t float64, i int) {
	if i != 0 || len(p.banked) == 0 || !p.c.Machine(p.resumeOn).Idle() {
		return
	}
	b := p.banked[len(p.banked)-1]
	p.banked = p.banked[:len(p.banked)-1]
	j := p.c.Job(b.jk)
	vol := b.rem
	if p.resumeOn != 0 {
		vol = b.rem / j.Proc[0] * j.Proc[p.resumeOn]
	}
	p.c.Start(p.resumeOn, t, b.jk, vol*p.scale, 1)
}

func (p *preemptResume) OnCompletion(t float64, i, jk int)  {}
func (p *preemptResume) OnBookkeeping(t float64, i, jk int) {}
func (p *preemptResume) Audit() error                       { return nil }

func runPreemptResume(t *testing.T, pol *preemptResume, machines int, jobs []sched.Job) (*sched.Outcome, error) {
	t.Helper()
	s, err := NewSession(pol, Options{Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Feed(j); err != nil {
			t.Fatal(err)
		}
	}
	return s.Close()
}

func TestPreemptResumeSameMachine(t *testing.T) {
	// A (p=4) starts at 0, B (p=1) preempts it at 1; A resumes at 2 with its
	// remaining 3 units and completes at 5.
	out, err := runPreemptResume(t, &preemptResume{scale: 1}, 1,
		[]sched.Job{job(0, 0, 4), job(1, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed[1] != 2 || out.Completed[0] != 5 {
		t.Fatalf("completions %v, want B@2 A@5", out.Completed)
	}
	if len(out.Intervals) != 3 {
		t.Fatalf("got %d intervals, want 3 (partial + B + resumed)", len(out.Intervals))
	}
	if iv := out.Intervals[0]; iv.Job != 0 || iv.Start != 0 || iv.End != 1 {
		t.Fatalf("preempted partial interval %+v", iv)
	}
	ins := &sched.Instance{Machines: 1, Jobs: []sched.Job{job(0, 0, 4), job(1, 1, 1)}}
	if err := sched.ValidateOutcome(ins, out, sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}); err != nil {
		t.Fatalf("invalid outcome: %v", err)
	}
}

func TestPreemptResumeMigrates(t *testing.T) {
	// A (Proc = [4, 8]) is preempted on machine 0 at t=1 with 3/4 of its
	// work left and resumes on machine 1, where that fraction costs 6 units:
	// the volume-conservation audit must accept the rescaled chain.
	jobs := []sched.Job{job(0, 0, 4, 8), job(1, 1, 1, 100)}
	out, err := runPreemptResume(t, &preemptResume{resumeOn: 1, scale: 1}, 2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed[0] != 8 {
		t.Fatalf("migrated job completes at %v, want 8 (resumed at 2 for 6 units)", out.Completed[0])
	}
	var machines []int
	for _, iv := range out.Intervals {
		if iv.Job == 0 {
			machines = append(machines, iv.Machine)
		}
	}
	if len(machines) != 2 || machines[0] != 0 || machines[1] != 1 {
		t.Fatalf("job 0 segments on machines %v, want [0 1]", machines)
	}
	ins := &sched.Instance{Machines: 2, Jobs: jobs}
	if err := sched.ValidateOutcome(ins, out, sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}); err != nil {
		t.Fatalf("invalid migratory outcome: %v", err)
	}
}

func TestConservationAuditCatchesLostVolume(t *testing.T) {
	// Resuming with half the banked volume completes the job with work
	// missing from its preemption chain; Close must refuse the run.
	_, err := runPreemptResume(t, &preemptResume{scale: 0.5}, 1,
		[]sched.Job{job(0, 0, 4), job(1, 1, 1)})
	if err == nil || !strings.Contains(err.Error(), "volume") {
		t.Fatalf("lost volume not caught: err = %v", err)
	}
}

func TestConservationAuditCatchesDuplicatedVolume(t *testing.T) {
	_, err := runPreemptResume(t, &preemptResume{scale: 1.5}, 1,
		[]sched.Job{job(0, 0, 4), job(1, 1, 1)})
	if err == nil || !strings.Contains(err.Error(), "volume") {
		t.Fatalf("duplicated volume not caught: err = %v", err)
	}
}
