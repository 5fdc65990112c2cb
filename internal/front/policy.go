package front

import (
	"fmt"

	"repro/internal/core"
)

// sessionKey is the pool key of a session shape: every construction
// parameter that could change outcomes (policy, machine count, ε, α) is
// folded in, so a pooled session can only ever be recycled into a
// server whose runs it is bit-identical for. Size hints are
// performance-only and deliberately excluded.
func sessionKey(policy string, machines int, eps, alpha float64) string {
	return fmt.Sprintf("%s/m=%d/eps=%g/alpha=%g", policy, machines, eps, alpha)
}

// openSession builds one fresh shard session of the configured policy,
// preallocated for about hint jobs.
func openSession(pol core.Policy, cfg *Config, hint int) (*core.Session, error) {
	return pol.Open(cfg.Machines, core.Params{Epsilon: cfg.Epsilon, Alpha: cfg.Alpha, SizeHint: hint}, nil)
}
