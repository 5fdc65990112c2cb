package wflow

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// engineSession lets the session types embed engine.Session without
// exporting a field.
type engineSession = engine.Session

// Session is a streaming run of the weighted extension: jobs are fed one at
// a time in release order and scheduled online. A session with the same
// options produces an Outcome bit-identical to a batch Run over the same
// jobs (pinned by the equivalence tests in stream_test.go).
//
// Feed, FeedBatch, AdvanceTo, Fed, Pending, EachFed, SetTelemetry, Reset and
// Snapshot are promoted from the embedded engine.Session; Close and Restore
// are the policy's.
type Session struct {
	*engineSession
	p *wpolicy
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
