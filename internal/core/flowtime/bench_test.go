package flowtime

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func benchRun(b *testing.B, n, m int, eps float64, dual bool) {
	cfg := workload.DefaultConfig(n, m, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ins, Options{Epsilon: eps, TrackDual: dual}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRun1kJobs4Machines(b *testing.B)  { benchRun(b, 1000, 4, 0.2, false) }
func BenchmarkRun10kJobs4Machines(b *testing.B) { benchRun(b, 10000, 4, 0.2, false) }
func BenchmarkRun10kJobs16Machines(b *testing.B) {
	benchRun(b, 10000, 16, 0.2, false)
}
func BenchmarkRun10kJobsDualTracked(b *testing.B) {
	benchRun(b, 10000, 4, 0.2, true)
}

// BenchmarkStreamSession measures the streaming ingestion path: the same
// 10k-job workload as BenchmarkRun10kJobs4Machines fed through a Session
// without a size hint, so every per-job table grows on demand — the cost a
// schedsim -stream consumer pays over batch Run.
func BenchmarkStreamSession(b *testing.B) {
	cfg := workload.DefaultConfig(10000, 4, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ins.Machines, Options{Epsilon: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		for k := range ins.Jobs {
			if err := s.Feed(ins.Jobs[k]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSessionBatched is BenchmarkStreamSession through the
// FeedBatch fast path: the same hint-less 10k-job stream in 256-job slabs,
// one bulk event push and one drain per slab instead of per job.
func BenchmarkStreamSessionBatched(b *testing.B) {
	cfg := workload.DefaultConfig(10000, 4, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSession(ins.Machines, Options{Epsilon: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(ins.Jobs); lo += 256 {
			hi := min(lo+256, len(ins.Jobs))
			if err := s.FeedBatch(ins.Jobs[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchPath isolates the λ evaluation (RankStats over m
// ostree.Flat pending indexes) by running a workload whose jobs all arrive
// before any completes.
func BenchmarkDispatchPath(b *testing.B) {
	cfg := workload.DefaultConfig(5000, 8, 5)
	cfg.Load = 50 // everything lands at once: pure dispatch cost
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ins, Options{Epsilon: 0.2}); err != nil {
			b.Fatal(err)
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
