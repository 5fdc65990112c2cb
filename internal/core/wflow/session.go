package wflow

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming run of the weighted extension: jobs are fed one at
// a time in release order and scheduled online. A session with the same
// options produces an Outcome bit-identical to a batch Run over the same
// jobs (pinned by the equivalence tests in stream_test.go).
type Session struct {
	es *engine.Session
	p  *wpolicy
}

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	return newSession(machines, opt, opt.SizeHint)
}

func newSession(machines int, opt Options, hint int) (*Session, error) {
	if !(opt.Epsilon > 0 && opt.Epsilon < 1) {
		return nil, fmt.Errorf("wflow: epsilon must be in (0,1), got %v", opt.Epsilon)
	}
	if hint < 0 {
		hint = 0
	}
	if machines <= 0 {
		return nil, fmt.Errorf("wflow: session needs at least one machine, got %d", machines)
	}
	p := newPolicy(opt, machines, hint)
	es, err := engine.NewSession(p, engine.Options{Machines: machines, SizeHint: hint})
	if err != nil {
		return nil, err
	}
	return &Session{es: es, p: p}, nil
}

// Feed admits the next job of the stream (releases must be non-decreasing)
// and advances the simulation as far as the fed releases allow.
func (s *Session) Feed(j sched.Job) error { return s.es.Feed(j) }

// FeedBatch admits a release-ordered batch of jobs in one call, observably
// identical to feeding them one Feed at a time but with the per-job
// ingestion overhead amortized (see engine.Session.FeedBatch).
func (s *Session) FeedBatch(jobs []sched.Job) error { return s.es.FeedBatch(jobs) }

// AdvanceTo declares that no job released before t will ever be fed and
// advances the simulation through time t.
func (s *Session) AdvanceTo(t float64) error { return s.es.AdvanceTo(t) }

// Fed reports the number of jobs admitted so far (see engine.Session.Fed).
func (s *Session) Fed() int { return s.es.Fed() }

// SetTelemetry attaches engine telemetry to the underlying session
// (outcome-neutral; see engine.Telemetry).
func (s *Session) SetTelemetry(t engine.Telemetry) { s.es.SetTelemetry(t) }

// Pending reports the number of jobs admitted but not yet completed or
// rejected — the backpressure signal of engine.Session.Pending.
func (s *Session) Pending() int { return s.es.Pending() }

// EachFed visits every admitted job in feed order (see
// engine.Session.EachFed); call it only from the owning goroutine, or after
// a Shard Quiesce/Wait barrier.
func (s *Session) EachFed(f func(j *sched.Job)) { s.es.EachFed(f) }

// Close drains the run to completion and returns the audited result.
func (s *Session) Close() (*Result, error) {
	out, err := s.es.Close()
	if err != nil {
		return nil, err
	}
	res := s.p.res
	res.Outcome = out
	return res, nil
}

// Reset recycles the closed session for a fresh run, retaining every grown
// allocation (engine.Recyclable; park it in an engine.SessionPool). The
// recycled session behaves exactly like a new one with the same options.
func (s *Session) Reset() error { return s.es.Reset() }

// Run executes the weighted extension on the instance: a thin wrapper over
// a Session fed the instance's job slice in one batch.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	s, err := newSession(ins.Machines, opt, len(ins.Jobs))
	if err != nil {
		return nil, err
	}
	if err := s.FeedBatch(ins.Jobs); err != nil {
		return nil, err
	}
	return s.Close()
}
