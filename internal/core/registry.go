package core

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/core/srpt"
	"repro/internal/core/wflow"
	"repro/internal/engine"
	"repro/internal/sched"
)

// Params are the construction parameters every session policy is opened
// with. A policy ignores what it does not use: srpt and wsrpt take neither
// ε nor α, and only speedscale takes α.
type Params struct {
	Epsilon  float64 // rejection parameter ε
	Alpha    float64 // power exponent P(s) = s^α
	SizeHint int     // expected stream size; never changes outcomes, restores ignore it
}

// Stream is the live half of an open session: batched feeding, freezing to a
// snapshot, the fed-job census, telemetry and recycling (engine.Recyclable).
// Every streaming session of internal/core satisfies it.
type Stream interface {
	engine.BatchFeeder
	Snapshot(w io.Writer) error
	Fed() int
	EachFed(f func(j *sched.Job))
	SetTelemetry(t engine.Telemetry)
	Reset() error
}

// Session is one open policy session: the live stream plus the policy's
// Close, erased to the shared Outcome.
type Session struct {
	Stream
	finish func() (*sched.Outcome, error)
}

// Finish drains the session to completion and returns its Outcome.
func (s *Session) Finish() (*sched.Outcome, error) { return s.finish() }

// Policy is one registry entry: a session-backed policy that schedsim
// streams and replays, the front door serves, and the goldens pin.
type Policy struct {
	Name string
	Mode sched.ValidateMode // the audit its Outcomes pass
	// Open builds a session on the given number of machines (restore == nil)
	// or restores one from a snapshot (restore != nil; the machine count then
	// comes from the snapshot).
	Open func(machines int, p Params, restore io.Reader) (*Session, error)
}

var registry = []Policy{
	entry("flowtime", sched.ValidateMode{RequireUnitSpeed: true},
		func(p Params) flowtime.Options { return flowtime.Options{Epsilon: p.Epsilon, SizeHint: p.SizeHint} },
		flowtime.NewSession, flowtime.Restore, func(r *flowtime.Result) *sched.Outcome { return r.Outcome }),
	entry("wflow", sched.ValidateMode{RequireUnitSpeed: true},
		func(p Params) wflow.Options { return wflow.Options{Epsilon: p.Epsilon, SizeHint: p.SizeHint} },
		wflow.NewSession, wflow.Restore, func(r *wflow.Result) *sched.Outcome { return r.Outcome }),
	entry("speedscale", sched.ValidateMode{},
		func(p Params) speedscale.Options {
			return speedscale.Options{Epsilon: p.Epsilon, Alpha: p.Alpha, SizeHint: p.SizeHint}
		},
		speedscale.NewSession, speedscale.Restore, func(r *speedscale.Result) *sched.Outcome { return r.Outcome }),
	entry("srpt", sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true},
		func(p Params) srpt.Options { return srpt.Options{SizeHint: p.SizeHint} },
		srpt.NewSession, srpt.Restore, func(r *srpt.Result) *sched.Outcome { return r.Outcome }),
	entry("wsrpt", sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true},
		func(p Params) srpt.WeightedOptions { return srpt.WeightedOptions{SizeHint: p.SizeHint} },
		srpt.NewWeightedSession, srpt.RestoreWeighted, func(r *srpt.WeightedResult) *sched.Outcome { return r.Outcome }),
}

// entry builds a registry entry from a policy package's NewSession, Restore
// and Close, with opts mapping the shared Params onto the package's Options.
func entry[S interface {
	Stream
	Close() (R, error)
}, O, R any](name string, mode sched.ValidateMode, opts func(Params) O,
	build func(int, O) (S, error), restore func(io.Reader, O) (S, error), outcome func(R) *sched.Outcome) Policy {
	open := func(machines int, p Params, r io.Reader) (*Session, error) {
		var s S
		var err error
		if r != nil {
			s, err = restore(r, opts(p))
		} else {
			s, err = build(machines, opts(p))
		}
		if err != nil {
			return nil, err
		}
		return &Session{Stream: s, finish: func() (*sched.Outcome, error) {
			res, err := s.Close()
			if err != nil {
				return nil, err
			}
			return outcome(res), nil
		}}, nil
	}
	return Policy{Name: name, Mode: mode, Open: open}
}

// Policies returns every registered session policy in registry order.
func Policies() []Policy { return slices.Clone(registry) }

// Names returns the registered policy names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, p := range registry {
		names[i] = p.Name
	}
	return names
}

// Lookup returns the named session policy; its error lists every
// registered name.
func Lookup(name string) (Policy, error) {
	for _, p := range registry {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("core: %q is not a session policy (use %s)", name, strings.Join(Names(), "|"))
}
