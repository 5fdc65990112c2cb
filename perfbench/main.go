// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one of three workloads against the real surfaces and ends its
// standard output with one JSON line of metrics:
//
//	serve-paced  schedserve on loopback, two tenants sending open-loop at a
//	             fixed total rate; a checkpoint lineage every 50 000 jobs
//	serve-flood  the same server and traces, no checkpoints, both tenants
//	             sending as fast as a window of unacknowledged jobs allows
//	replay       flowtime.Run then srpt.Run on Pareto instances (m=32), in a
//	             separate replay-only process, no network
//
// Usage (from the repository root, through the wrapper that builds the
// binaries; README.md defines every metric per workload):
//
//	bash perfbench/run.sh --workload serve-paced --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 the
// run repeats the workload with telemetry on, replays the same jobs through
// each layer's public calls, and the JSON carries the per-layer metrics.
// Every run checks its outputs; a failed check exits non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in print order; every workload
// reports all of them (see the per-workload definitions in README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"verdict_p50_ms", "ms"},
	{"verdict_p99_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
	{"mean_flow", "sim-time"},
	{"reject_frac", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's per-layer metrics in print order. A
// metric of a layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"front.merge_wait_us_mean", "us"},
	{"front.decide_us_mean", "us"},
	{"front.sequencer_busy_frac", "ratio"},
	{"front.ack_us_mean", "us"},
	{"front.checkpoints", "count"},
	{"front.checkpoint_ms_mean", "ms"},
	{"front.checkpoint_mb_mean", "MB"},
	{"front.checkpoint_delta_ratio", "ratio"},
	{"front.depth_at_drain", "jobs"},
	{"engine.events_per_job", "events/job"},
	{"engine.drain_ms_total", "ms"},
	{"admission.prerejected", "count"},
	{"trace.decode_ns_per_job", "ns"},
	{"trace.bytes_per_job", "bytes"},
	{"engine.feed_ns_per_job", "ns"},
	{"engine.wait_ms", "ms"},
	{"flowtime.feed_ns_per_job", "ns"},
	{"snapshot.encode_ms_per_mb", "ms/MB"},
	{"snapshot.lineage_write_ms_mean", "ms"},
	{"flowtime.run_s", "s"},
	{"srpt.run_s", "s"},
	{"dispatch.pool_overhead_frac", "ratio"},
	{"sched.validate_s", "s"},
	{"workload.gen_s", "s"},
	{"client.encode_ns_per_job", "ns"},
	{"client.late_p99_ms", "ms"},
	{"client.drain_ms", "ms"},
	{"closure.unattributed_frac", "ratio"},
	{"tracing.overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"serve-paced": func(cfg runConfig) (*outcome, error) { return runServe(cfg, pacedSpec) },
	"serve-flood": func(cfg runConfig) (*outcome, error) { return runServe(cfg, floodSpec) },
	"replay":      runReplay,
}

// runConfig is what every workload runner receives.
type runConfig struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	schedserve string // path of the schedserve binary
	work       string // scratch directory for checkpoints and digests
}

// outcome is a workload run's product: the numbers, the accounting, and
// any failed output checks (which make the command exit non-zero).
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	aliases   []string // the same numbers under their serving names, printed only
	attempted int
	failed    int
	failures  []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	role := flag.String("role", "bench", "bench | replay-worker (internal: the replay-only process)")
	wl := flag.String("workload", "", "serve-paced | serve-flood | replay")
	seed := flag.Int64("seed", 1, "workload seed (the program under test sees only the generated jobs)")
	seconds := flag.Float64("seconds", 24, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	schedserve := flag.String("schedserve", "", "schedserve binary")
	work := flag.String("work", ".bench_build/perfbench", "scratch directory (checkpoints, output digests)")
	flag.Parse()

	cfg := runConfig{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		schedserve: *schedserve, work: *work}
	if *role == "replay-worker" {
		if err := replayWorker(cfg); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q (serve-paced | serve-flood | replay)", cfg.workload))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	printProvenance(cfg)
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	os.Exit(report(cfg, out))
}

// report prints the human-readable table and the final JSON line, and
// returns the exit status: 1 when any output check failed.
func report(cfg runConfig, out *outcome) int {
	res := result{Correct: len(out.failures) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric)}
	fmt.Printf("perfbench: %s  attempted=%d failed=%d failed_frac=%.6g\n",
		cfg.workload, out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)))
	if cfg.trace {
		fmt.Println("per-layer (traced run):")
		for _, m := range perLayer {
			v := out.layers[m.name]
			fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
			res.Metrics[m.name] = metric{v, m.unit}
		}
	} else {
		fmt.Println("end-to-end:")
		for _, m := range endToEnd {
			v := out.e2e[m.name]
			fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	for _, a := range out.aliases {
		fmt.Println("  " + a)
	}
	for _, f := range out.failures {
		fmt.Println("CHECK FAILED: " + f)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// printProvenance records what produced the numbers.
func printProvenance(cfg runConfig) {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v go=%s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
