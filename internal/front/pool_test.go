package front

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/sched"
)

// TestPooledServerRestart wires server restart through an engine.SessionPool:
// generation after generation of servers share one pool, each drain parks its
// closed shard sessions and each New draws them back warm. Every generation's
// report must be byte-identical to the pool-less reference — recycling is
// performance-only — and the pool must actually cycle (sessions parked after
// drain, drawn down on construction).
func TestPooledServerRestart(t *testing.T) {
	cfg := testConfig(3, 2)
	cfg.AwaitTenants = 2
	jobs := map[int][]sched.Job{
		1: genJobs(101, 300, 3),
		5: genJobs(505, 250, 3),
	}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, ref, jobs)
	refRep, err := ref.Drain()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refRep)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Pool = engine.NewSessionPool(0)
	key := sessionKey(cfg.Policy, cfg.Machines, cfg.Epsilon, cfg.Alpha)
	for gen := 0; gen < 3; gen++ {
		idleBefore := cfg.Pool.Idle(key)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if gen > 0 {
			if got := cfg.Pool.Idle(key); got != idleBefore-cfg.Shards {
				t.Fatalf("generation %d: pool idles %d sessions after Get, want %d drawn down", gen, got, idleBefore-cfg.Shards)
			}
		}
		feedInProcess(t, s, jobs)
		rep, err := s.Drain()
		if err != nil {
			t.Fatalf("generation %d: drain: %v", gen, err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("generation %d report diverged from the pool-less reference:\n%s\nvs\n%s", gen, got, want)
		}
		if idle := cfg.Pool.Idle(key); idle != cfg.Shards {
			t.Fatalf("generation %d: %d sessions parked after drain, want %d", gen, idle, cfg.Shards)
		}
	}
}

// TestPoolKeyIsolation proves a pooled session can never cross configuration
// boundaries: a server with a different ε builds fresh sessions even when
// another key has idle sessions parked.
func TestPoolKeyIsolation(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Pool = engine.NewSessionPool(0)
	jobs := map[int][]sched.Job{1: genJobs(7, 50, 2)}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedInProcess(t, s, jobs)
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	key := sessionKey(cfg.Policy, cfg.Machines, cfg.Epsilon, cfg.Alpha)
	if cfg.Pool.Idle(key) != 1 {
		t.Fatalf("expected 1 parked session under %q", key)
	}

	other := cfg
	other.Epsilon = 0.4
	s2, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pool.Idle(key) != 1 {
		t.Fatal("a server with different ε drew a session from a foreign key")
	}
	feedInProcess(t, s2, jobs)
	if _, err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
}
