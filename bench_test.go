package repro

// One benchmark per experiment of EXPERIMENTS.md: `go test -bench=BenchmarkE1`
// regenerates Table 1, and so on. The artifact is printed once per benchmark
// run (on the first iteration) so `go test -bench=. -benchmem` reproduces the
// full evaluation; subsequent iterations measure the cost of regenerating it.
//
// Micro-benchmarks for the hot paths (dispatch, rank index, LP pivots) live in
// their packages; the additional benchmarks below measure the end-to-end
// scheduler throughput that E10 reports.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core/energymin"
	"repro/internal/core/flowtime"
	"repro/internal/core/speedscale"
	"repro/internal/sched"
	"repro/internal/workload"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		out, err := e.Run(bench.Config{})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			fmt.Printf("\n%s\n", out)
		}
	}
}

// Table 1: Theorem 1 rejection budget and competitive ratio vs ε.
func BenchmarkE1_Table1_FlowBudget(b *testing.B) { runExperiment(b, "E1") }

// Figure 1: flow/LB and rejected fraction as ε sweeps.
func BenchmarkE2_Figure1_EpsTradeoff(b *testing.B) { runExperiment(b, "E2") }

// Table 2: algorithm A vs no-rejection and speed-augmented baselines.
func BenchmarkE3_Table2_Baselines(b *testing.B) { runExperiment(b, "E3") }

// Figure 2: Lemma 1 adversarial family, ratio growth in √Δ.
func BenchmarkE4_Figure2_Lemma1(b *testing.B) { runExperiment(b, "E4") }

// Table 3: dual-fitting audit against the exact LP on small instances.
func BenchmarkE5_Table3_DualAudit(b *testing.B) { runExperiment(b, "E5") }

// Table 4: Theorem 2 rejected-weight budget and ratio vs (ε, α).
func BenchmarkE6_Table4_SpeedScale(b *testing.B) { runExperiment(b, "E6") }

// Figure 3: energy/flow split as α sweeps.
func BenchmarkE7_Figure3_CostSplit(b *testing.B) { runExperiment(b, "E7") }

// Table 5: greedy configuration-LP vs AVR vs the solo lower bound.
func BenchmarkE8_Table5_EnergyMin(b *testing.B) { runExperiment(b, "E8") }

// Figure 4: Lemma 2 adaptive duel, ratio growth in α.
func BenchmarkE9_Figure4_Lemma2(b *testing.B) { runExperiment(b, "E9") }

// Table 6: dispatch-path scaling.
func BenchmarkE10_Table6_Overhead(b *testing.B) { runExperiment(b, "E10") }

// Table 7: rejection-rule ablation.
func BenchmarkE11_Table7_Ablation(b *testing.B) { runExperiment(b, "E11") }

// Table 8: §4 strategy-grid discretization ablation.
func BenchmarkE12_Table8_GridAblation(b *testing.B) { runExperiment(b, "E12") }

// Table 9: weighted-flow-time extension (beyond Theorem 1).
func BenchmarkE13_Table9_WeightedExtension(b *testing.B) { runExperiment(b, "E13") }

// Table 10: streaming shard throughput (jobs/sec, allocs/job vs shards).
func BenchmarkE14_Table10_StreamThroughput(b *testing.B) { runExperiment(b, "E14") }

// Table 11: price of non-preemption across workload families.
func BenchmarkE15_Table11_PriceOfNonPreemption(b *testing.B) { runExperiment(b, "E15") }

// Table 12: batched ingestion throughput (slab fan-out + FeedBatch vs per-job).
func BenchmarkE16_Table12_BatchedIngestion(b *testing.B) { runExperiment(b, "E16") }

// End-to-end scheduler throughput (jobs scheduled per op) on a fixed
// overloaded workload; complements E10 with -benchmem numbers.
func BenchmarkFlowtimeEndToEnd(b *testing.B) {
	cfg := workload.DefaultConfig(5000, 8, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowtimeEndToEndDualTracking(b *testing.B) {
	cfg := workload.DefaultConfig(5000, 8, 3)
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2, TrackDual: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedscaleEndToEnd(b *testing.B) {
	cfg := workload.DefaultConfig(2000, 4, 3)
	cfg.Weighted = true
	cfg.Load = 1.1
	ins := workload.Random(cfg)
	ins.Alpha = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speedscale.Run(ins, speedscale.Options{Epsilon: 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnergyminEndToEnd(b *testing.B) {
	ins := workload.RandomDeadline(workload.DeadlineConfig{
		N: 200, M: 2, Seed: 3, Horizon: 300, MinVol: 1, MaxVol: 8, Slack: 3, Alpha: 2,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := energymin.Run(ins, energymin.Options{LengthGridRatio: 1.2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricsAndValidation(b *testing.B) {
	cfg := workload.DefaultConfig(5000, 8, 3)
	ins := workload.Random(cfg)
	res, err := flowtime.Run(ins, flowtime.Options{Epsilon: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
			b.Fatal(err)
		}
		if _, err := sched.ComputeMetrics(ins, res.Outcome); err != nil {
			b.Fatal(err)
		}
	}
}
