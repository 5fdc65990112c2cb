package srpt

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// Session is a streaming per-machine preemptive SRPT run: jobs are fed one
// at a time in release order and scheduled online. A session with the same
// options produces an Outcome bit-identical to a batch Run over the same
// jobs (pinned by the equivalence tests), so it plugs into schedsim -stream
// and engine.Shard exactly like the λ-dispatch policies.
type Session struct {
	es *engine.Session
	p  *policy
}

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	return newSession(machines, opt, opt.SizeHint)
}

func newSession(machines int, opt Options, hint int) (*Session, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("srpt: session needs at least one machine, got %d", machines)
	}
	if hint < 0 {
		hint = 0
	}
	p := newPolicy(machines)
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

// Run executes per-machine preemptive SRPT on the instance. It is a thin
// wrapper over a Session fed the instance's job slice in one batch, with
// storage preallocated for the known size.
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

// WeightedSession is the streaming front-end of the migratory weighted-SRPT
// comparator, with the same Feed/AdvanceTo/Close contract as Session.
type WeightedSession struct {
	es *engine.Session
	p  *wpolicy
}

// NewWeightedSession starts a streaming migratory weighted-SRPT run,
// preallocating per-job storage when WeightedOptions.SizeHint announces the
// expected stream size.
func NewWeightedSession(machines int, opt WeightedOptions) (*WeightedSession, error) {
	return newWeightedSession(machines, opt, opt.SizeHint)
}

func newWeightedSession(machines int, opt WeightedOptions, hint int) (*WeightedSession, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("srpt: session needs at least one machine, got %d", machines)
	}
	if hint < 0 {
		hint = 0
	}
	p := newWPolicy()
	if hint > 0 {
		p.frac = make([]float64, 0, hint)
		p.pmin = make([]float64, 0, hint)
		p.lastMach = make([]int32, 0, hint)
	}
	es, err := engine.NewSession(p, engine.Options{Machines: machines, SizeHint: hint})
	if err != nil {
		return nil, err
	}
	return &WeightedSession{es: es, p: p}, nil
}

// Feed admits the next job of the stream.
func (s *WeightedSession) Feed(j sched.Job) error { return s.es.Feed(j) }

// FeedBatch admits a release-ordered batch of jobs in one call, observably
// identical to feeding them one Feed at a time (see engine.Session.FeedBatch).
func (s *WeightedSession) FeedBatch(jobs []sched.Job) error { return s.es.FeedBatch(jobs) }

// AdvanceTo declares that no job released before t will ever be fed.
func (s *WeightedSession) AdvanceTo(t float64) error { return s.es.AdvanceTo(t) }

// Fed reports the number of jobs admitted so far (see engine.Session.Fed).
func (s *WeightedSession) Fed() int { return s.es.Fed() }

// SetTelemetry attaches engine telemetry to the underlying session
// (outcome-neutral; see engine.Telemetry).
func (s *WeightedSession) SetTelemetry(t engine.Telemetry) { s.es.SetTelemetry(t) }

// Pending reports the number of jobs admitted but not yet completed or
// rejected — the backpressure signal of engine.Session.Pending.
func (s *WeightedSession) Pending() int { return s.es.Pending() }

// EachFed visits every admitted job in feed order (see
// engine.Session.EachFed); call it only from the owning goroutine, or after
// a Shard Quiesce/Wait barrier.
func (s *WeightedSession) EachFed(f func(j *sched.Job)) { s.es.EachFed(f) }

// Close drains the run to completion and returns the audited result.
func (s *WeightedSession) Close() (*WeightedResult, error) {
	out, err := s.es.Close()
	if err != nil {
		return nil, err
	}
	res := s.p.res
	res.Outcome = out
	return res, nil
}

// Reset recycles the closed weighted session for a fresh run, retaining
// every grown allocation (engine.Recyclable).
func (s *WeightedSession) Reset() error { return s.es.Reset() }

// RunWeighted executes the migratory weighted-SRPT comparator on the
// instance via a hinted streaming session, like Run.
func RunWeighted(ins *sched.Instance, opt WeightedOptions) (*WeightedResult, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	s, err := newWeightedSession(ins.Machines, opt, len(ins.Jobs))
	if err != nil {
		return nil, err
	}
	if err := s.FeedBatch(ins.Jobs); err != nil {
		return nil, err
	}
	return s.Close()
}
