package flowtime

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestCalendarQueueMatchesHeap is the event-queue equivalence golden test:
// the calendar queue shares the heap's exact (Time, Kind, seq) pop-order
// contract, so every Result — outcome, rule counters, dual report — must be
// bit-identical under either implementation on the full equivalence matrix.
func TestCalendarQueueMatchesHeap(t *testing.T) {
	for n, ins := range equivInstances(t) {
		for _, opt := range []Options{
			{Epsilon: 0.2},
			{Epsilon: 0.2, TrackDual: true},
			{Epsilon: 0.4},
		} {
			heapOpt, calOpt := opt, opt
			heapOpt.EventQueue = engine.EventQueueHeap
			calOpt.EventQueue = engine.EventQueueCalendar
			hres, err := Run(ins, heapOpt)
			if err != nil {
				t.Fatalf("instance %d: heap: %v", n, err)
			}
			cres, err := Run(ins, calOpt)
			if err != nil {
				t.Fatalf("instance %d: calendar: %v", n, err)
			}
			if !reflect.DeepEqual(cres, hres) {
				t.Fatalf("instance %d (ε=%v): calendar result differs from heap", n, opt.Epsilon)
			}
		}
	}
}

// TestCrossQueueSnapshotResume kills a run under one event-queue
// implementation and resumes it under the other, in both directions: the
// EVTQ snapshot carries every event's packed ord word, so the restored
// queue — whatever its layout — pops the donor's exact order and the final
// Result matches an uninterrupted batch Run bit-for-bit.
func TestCrossQueueSnapshotResume(t *testing.T) {
	impls := []string{engine.EventQueueHeap, engine.EventQueueCalendar}
	for n, ins := range equivInstances(t) {
		batch, err := Run(ins, Options{Epsilon: 0.2})
		if err != nil {
			t.Fatalf("instance %d: batch: %v", n, err)
		}
		for _, donorQ := range impls {
			for _, heirQ := range impls {
				cut := len(ins.Jobs) / 2
				donor, err := NewSession(ins.Machines, Options{Epsilon: 0.2, EventQueue: donorQ})
				if err != nil {
					t.Fatal(err)
				}
				if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := donor.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if _, err := donor.Close(); err != nil {
					t.Fatal(err)
				}
				heir, err := Restore(&buf, Options{Epsilon: 0.2, EventQueue: heirQ})
				if err != nil {
					t.Fatalf("instance %d: restore %s snapshot under %s: %v", n, donorQ, heirQ, err)
				}
				if err := heir.FeedBatch(ins.Jobs[cut:]); err != nil {
					t.Fatal(err)
				}
				res, err := heir.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, batch) {
					t.Fatalf("instance %d: %s→%s resume diverged from the uninterrupted run", n, donorQ, heirQ)
				}
			}
		}
	}
}

// BenchmarkSessionReuse measures the feed path of a warm-pool session: one
// recycled session re-fed the full 10k-job stream per iteration, with Close
// and the Put-time Reset outside the timed window. The entire per-job feed
// path — ingestion, event queue, dispatch, pending index, outcome recording
// — must run on storage retained across Reset, so the steady state is
// allocation-free (the number BENCH_baseline.json gates near zero). The
// session runs with full engine telemetry attached: counters, the depth
// gauge and the drain histogram record on every slab, and the gate proves
// they stay off the allocator.
func BenchmarkSessionReuse(b *testing.B) {
	cfg := workload.DefaultConfig(10000, 4, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	opt := Options{Epsilon: 0.2, SizeHint: len(ins.Jobs)}
	pool := engine.NewSessionPool(0)
	const key = "flowtime/bench"

	warm, err := NewSession(ins.Machines, opt)
	if err != nil {
		b.Fatal(err)
	}
	warm.SetTelemetry(engine.NewTelemetry(obs.NewRegistry(), "0"))
	if err := warm.FeedBatch(ins.Jobs); err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Close(); err != nil {
		b.Fatal(err)
	}
	if err := pool.Put(key, warm); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := pool.Get(key).(*Session)
		if s == nil {
			b.Fatal("warm pool missed")
		}
		if err := s.FeedBatch(ins.Jobs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if err := pool.Put(key, s); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
