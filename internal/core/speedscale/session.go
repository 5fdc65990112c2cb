package speedscale

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/sched"
)

// engineSession lets the session types embed engine.Session without
// exporting a field.
type engineSession = engine.Session

// Session is a streaming run of the §3 algorithm: jobs are fed one at a
// time in release order and scheduled online. A session with the same
// options produces an Outcome bit-identical to a batch Run over the same
// jobs (pinned by the equivalence tests in stream_test.go). Because a
// stream has no instance to fall back on, Options.Alpha must be set
// explicitly.
//
// Feed, FeedBatch, AdvanceTo, Fed, Pending, EachFed, SetTelemetry, Reset and
// Snapshot are promoted from the embedded engine.Session; Close and Restore
// are the policy's.
type Session struct {
	*engineSession
	p *spolicy
}

// NewSession starts a streaming run on the given number of machines,
// preallocating per-job storage when Options.SizeHint announces the
// expected stream size.
func NewSession(machines int, opt Options) (*Session, error) {
	return newSession(machines, opt, opt.SizeHint)
}

func newSession(machines int, opt Options, hint int) (*Session, error) {
	if !(opt.Epsilon > 0 && opt.Epsilon < 1) {
		return nil, fmt.Errorf("speedscale: epsilon must be in (0,1), got %v", opt.Epsilon)
	}
	if hint < 0 {
		hint = 0
	}
	if !(opt.Alpha > 1) {
		return nil, fmt.Errorf("speedscale: alpha must exceed 1, got %v", opt.Alpha)
	}
	gamma := opt.Gamma
	if gamma == 0 {
		gamma = DefaultGamma(opt.Epsilon, opt.Alpha)
	}
	if !(gamma > 0) {
		return nil, fmt.Errorf("speedscale: gamma must be positive, got %v", gamma)
	}
	if machines <= 0 {
		return nil, fmt.Errorf("speedscale: session needs at least one machine, got %d", machines)
	}
	p := newPolicy(opt, opt.Alpha, gamma, machines, hint)
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
	res.Dual = s.p.dual
	return res, nil
}

// Run executes the algorithm on the instance: a thin wrapper over a Session
// fed from the instance's job slice, with Alpha resolved from the instance
// when Options.Alpha is zero.
func Run(ins *sched.Instance, opt Options) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	if opt.Alpha == 0 {
		opt.Alpha = ins.Alpha
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
