package srpt

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// engineSession lets the session types embed engine.Session without
// exporting a field.
type engineSession = engine.Session

// Session is a streaming per-machine preemptive SRPT run: jobs are fed one
// at a time in release order and scheduled online. A session with the same
// options produces an Outcome bit-identical to a batch Run over the same
// jobs (pinned by the equivalence tests), so it plugs into schedsim -stream
// and engine.Shard exactly like the λ-dispatch policies.
//
// Feed, FeedBatch, AdvanceTo, Fed, Pending, EachFed, SetTelemetry, Reset and
// Snapshot are promoted from the embedded engine.Session; Close and Restore
// are the policy's.
type Session struct {
	*engineSession
	p *policy
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
	p := newPolicy(machines, hint)
	es, err := engine.NewSession(p, engine.Options{Machines: machines, SizeHint: hint})
	if err != nil {
		return nil, err
	}
	return &Session{engineSession: es, p: p}, nil
}

// Close drains the run to completion and returns the audited result.
func (s *Session) Close() (*Result, error) {
	out, err := s.engineSession.Close()
	if err != nil {
		return nil, err
	}
	res := s.p.res
	res.Outcome = out
	return res, nil
}

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
	*engineSession
	p *wpolicy
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
	return &WeightedSession{engineSession: es, p: p}, nil
}

// Close drains the run to completion and returns the audited result.
func (s *WeightedSession) Close() (*WeightedResult, error) {
	out, err := s.engineSession.Close()
	if err != nil {
		return nil, err
	}
	res := s.p.res
	res.Outcome = out
	return res, nil
}

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
