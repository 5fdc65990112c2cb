package engine

import "sync"

// Recyclable is what a SessionPool parks: a closed session — engine.Session
// or any of the policy session wrappers of internal/core — whose Reset
// returns it to the freshly-constructed state while retaining every grown
// allocation (job table, outcome arrays, ostree arenas, event-queue storage).
type Recyclable interface {
	Reset() error
}

// SessionPool recycles closed sessions across runs so long-lived servers
// stop re-paying the doubling-growth startup allocations every session
// restart. Sessions park under a caller-chosen key that must capture every
// outcome-relevant construction parameter (policy name, machine count,
// policy options): a Get for a key only ever returns a session built with
// exactly those parameters, so recycling is performance-only and can never
// change outcomes.
//
// The pool is safe for concurrent use — shard workers rotating sessions and
// a front door restarting drained ones share one pool. Reset runs inside
// Put, on the retiring path, so Get hands out ready sessions with no work on
// the start path.
type SessionPool struct {
	mu     sync.Mutex
	idle   map[string][]Recyclable
	perKey int
}

// NewSessionPool returns a pool keeping at most perKey idle sessions per
// key (≤ 0 selects 8). Sessions put beyond the cap are dropped: a pool
// bounds arena retention, it does not grow without limit.
func NewSessionPool(perKey int) *SessionPool {
	if perKey <= 0 {
		perKey = 8
	}
	return &SessionPool{idle: make(map[string][]Recyclable), perKey: perKey}
}

// Get returns a recycled session parked under key, or nil when none is
// idle — the caller then constructs a fresh session and Puts it back after
// closing it.
func (p *SessionPool) Get(key string) Recyclable {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[key]
	if len(q) == 0 {
		return nil
	}
	s := q[len(q)-1]
	q[len(q)-1] = nil
	p.idle[key] = q[:len(q)-1]
	return s
}

// Put recycles a closed session under key: Reset runs immediately (failing
// Put, and discarding the session, when it cannot be recycled — e.g. it is
// still open), then the session parks for a future Get. A session put beyond
// the per-key cap is reset anyway but not retained.
func (p *SessionPool) Put(key string, s Recyclable) error {
	if err := s.Reset(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[key]) >= p.perKey {
		return nil
	}
	p.idle[key] = append(p.idle[key], s)
	return nil
}

// Idle reports the number of sessions parked under key.
func (p *SessionPool) Idle(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[key])
}
