package front

import (
	"fmt"
	"io"

	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/engine"
	"repro/internal/sched"
)

// session is what the front door needs of a scheduler session: batched
// feeding, freezing to a snapshot, the fed-job census for rebuilding the
// duplicate-suppression ledger, and the depth signals. Every streaming
// session of internal/core satisfies it.
type session interface {
	engine.BatchFeeder
	Snapshot(w io.Writer) error
	Fed() int
	Pending() int
	EachFed(f func(j *sched.Job))
	SetTelemetry(t engine.Telemetry)
}

// policySession pairs a live scheduler session with the policy-specific
// close, erased to the shared Outcome, plus the recycle hook that parks the
// closed session in an engine.SessionPool for the next server generation.
type policySession struct {
	session
	finish func() (*sched.Outcome, error)
	reset  func() error
}

// Reset recycles the closed session for a fresh run (engine.Recyclable).
func (ps *policySession) Reset() error { return ps.reset() }

// servePolicies names the session-backed policies the front door can host.
const servePolicies = "flowtime|wflow|speedscale|srpt|wsrpt"

// sessionKey is the pool key of a session shape: every construction
// parameter that could change outcomes (policy, machine count, ε, α) is
// folded in, so a pooled session can only ever be recycled into a
// server whose runs it is bit-identical for. Size hints are
// performance-only and deliberately excluded.
func sessionKey(policy string, machines int, eps, alpha float64) string {
	return fmt.Sprintf("%s/m=%d/eps=%g/alpha=%g", policy, machines, eps, alpha)
}

// buildSession constructs (restore == nil) or restores (restore != nil) one
// shard's scheduler session. The shard fleet is the parallelism; each
// session runs on one goroutine. sizeHint preallocates per-job storage
// for a stream of about that many jobs (0 grows on demand); restores ignore
// it — a restored session sizes itself from the snapshot.
func buildSession(policy string, machines int, eps, alpha float64, sizeHint int, restore io.Reader) (*policySession, error) {
	switch policy {
	case "flowtime":
		opt := flowtime.Options{Epsilon: eps, SizeHint: sizeHint}
		var s *flowtime.Session
		var err error
		if restore != nil {
			s, err = flowtime.Restore(restore, opt)
		} else {
			s, err = flowtime.NewSession(machines, opt)
		}
		if err != nil {
			return nil, err
		}
		return &policySession{session: s, reset: s.Reset, finish: func() (*sched.Outcome, error) {
			res, err := s.Close()
			if err != nil {
				return nil, err
			}
			return res.Outcome, nil
		}}, nil
	case "wflow":
		opt := wflow.Options{Epsilon: eps, SizeHint: sizeHint}
		var s *wflow.Session
		var err error
		if restore != nil {
			s, err = wflow.Restore(restore, opt)
		} else {
			s, err = wflow.NewSession(machines, opt)
		}
		if err != nil {
			return nil, err
		}
		return &policySession{session: s, reset: s.Reset, finish: func() (*sched.Outcome, error) {
			res, err := s.Close()
			if err != nil {
				return nil, err
			}
			return res.Outcome, nil
		}}, nil
	case "speedscale":
		opt := speedscale.Options{Epsilon: eps, Alpha: alpha, SizeHint: sizeHint}
		var s *speedscale.Session
		var err error
		if restore != nil {
			s, err = speedscale.Restore(restore, opt)
		} else {
			s, err = speedscale.NewSession(machines, opt)
		}
		if err != nil {
			return nil, err
		}
		return &policySession{session: s, reset: s.Reset, finish: func() (*sched.Outcome, error) {
			res, err := s.Close()
			if err != nil {
				return nil, err
			}
			return res.Outcome, nil
		}}, nil
	case "srpt":
		opt := srpt.Options{SizeHint: sizeHint}
		var s *srpt.Session
		var err error
		if restore != nil {
			s, err = srpt.Restore(restore, opt)
		} else {
			s, err = srpt.NewSession(machines, opt)
		}
		if err != nil {
			return nil, err
		}
		return &policySession{session: s, reset: s.Reset, finish: func() (*sched.Outcome, error) {
			res, err := s.Close()
			if err != nil {
				return nil, err
			}
			return res.Outcome, nil
		}}, nil
	case "wsrpt":
		var s *srpt.WeightedSession
		var err error
		if restore != nil {
			s, err = srpt.RestoreWeighted(restore, srpt.WeightedOptions{})
		} else {
			s, err = srpt.NewWeightedSession(machines, srpt.WeightedOptions{SizeHint: sizeHint})
		}
		if err != nil {
			return nil, err
		}
		return &policySession{session: s, reset: s.Reset, finish: func() (*sched.Outcome, error) {
			res, err := s.Close()
			if err != nil {
				return nil, err
			}
			return res.Outcome, nil
		}}, nil
	}
	return nil, fmt.Errorf("front: policy %q cannot serve (use %s)", policy, servePolicies)
}
