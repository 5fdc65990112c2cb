package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core/flowtime"
	"repro/internal/core/srpt"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The replay instances: workload.Random draws with Pareto sizes on
// unrelated machines, overloaded so both rejection rules fire. One replay
// request replays the whole set, so that no single draw's heavy tail sets
// the numbers.
const (
	replayInstances = 8
	replayJobs      = 5000
	replayMachines  = 32
	replayLoad      = 1.2
	replayEps       = 0.2
	replaySetups    = 3 // set-up repeats; setup_s is their median
)

func replayInstance(seed int64, k int) *sched.Instance {
	c := workload.DefaultConfig(replayJobs, replayMachines, seed*16+int64(k))
	c.Sizes, c.MaxSize, c.Load = workload.SizePareto, 1000, replayLoad
	return workload.Random(c)
}

// replayReport is what the replay-only process hands back.
type replayReport struct {
	Setups     []float64 `json:"setups"`   // s per set-up repeat: generate, save and load every trace
	GenS       float64   `json:"gen_s"`    // workload.Random alone, last repeat
	Requests   []float64 `json:"requests"` // s per replay request: flowtime.Run then srpt.Run on every instance
	Jobs       int       `json:"jobs"`     // jobs per request
	MeanFlow   float64   `json:"mean_flow"`
	RejectFrac float64   `json:"reject_frac"`
	Digest     string    `json:"digest"`
	RSSMB      float64   `json:"rss_mb"`
	Failures   []string  `json:"failures"`
	Events     float64   `json:"events"`   // traced: engine events over every request
	Fed        float64   `json:"fed"`      // traced: jobs fed over every request
	DrainNS    float64   `json:"drain_ns"` // traced: engine drain time over every request
}

// replayWorker is the replay-only process: set-up, then replay requests
// until the measured time is spent, checking every outcome.
func replayWorker(cfg runConfig) error {
	rep := &replayReport{Jobs: replayInstances * replayJobs}
	path := filepath.Join(cfg.work, fmt.Sprintf("replay-%d.json", os.Getpid()))
	defer os.Remove(path)
	var inss []*sched.Instance
	for i := 0; i < replaySetups; i++ {
		inss = inss[:0]
		t0 := time.Now()
		var gen time.Duration
		for k := 0; k < replayInstances; k++ {
			tg := time.Now()
			ins := replayInstance(cfg.seed, k)
			gen += time.Since(tg)
			// The offline user loads the trace the way schedsim -compare does.
			if err := trace.SaveInstance(path, ins); err != nil {
				return err
			}
			loaded, err := trace.LoadInstance(path)
			if err != nil {
				return err
			}
			inss = append(inss, loaded)
		}
		rep.Setups = append(rep.Setups, time.Since(t0).Seconds())
		rep.GenS = gen.Seconds()
	}

	var reg *obs.Registry
	if cfg.trace {
		reg = obs.NewRegistry()
	}
	// One request per instance warms caches and the dispatch pool; its
	// outcomes are validated in full and fix the digest every later request
	// on that instance must reproduce.
	digests := make([]string, len(inss))
	var flow float64
	var rejected int
	for k, ins := range inss {
		fr, sr, _, err := replayOnce(ins, reg)
		if err != nil {
			return err
		}
		if err := sched.ValidateOutcome(ins, fr.Outcome, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("instance %d: flowtime outcome: %v", k, err))
		}
		if err := sched.ValidateOutcome(ins, sr.Outcome, sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}); err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("instance %d: srpt outcome: %v", k, err))
		}
		m, err := sched.ComputeMetrics(ins, fr.Outcome)
		if err != nil {
			return err
		}
		r := fr.Rule1Rejections + fr.Rule2Rejections
		if m.Rejected != r {
			rep.Failures = append(rep.Failures, fmt.Sprintf("instance %d: outcome rejects %d jobs, the rules count %d", k, m.Rejected, r))
		}
		if f := float64(r) / float64(len(ins.Jobs)); f > 2*replayEps {
			rep.Failures = append(rep.Failures, fmt.Sprintf("instance %d: Theorem 1: %.4f of jobs rejected, above 2ε = %.2f", k, f, 2*replayEps))
		}
		flow += m.TotalFlow
		rejected += r
		digests[k] = outcomeDigest(fr.Outcome, sr.Outcome)
	}
	total := float64(replayInstances * replayJobs)
	rep.MeanFlow, rep.RejectFrac = flow/total, float64(rejected)/total
	rep.Digest = strings.Join(digests, ",")
	if reg != nil {
		reg = obs.NewRegistry() // count the measured requests only
	}

	for spent := 0.0; spent < cfg.seconds; {
		req := 0.0
		for k, ins := range inss {
			fr, sr, d, err := replayOnce(ins, reg)
			if err != nil {
				return err
			}
			req += d
			if got := outcomeDigest(fr.Outcome, sr.Outcome); got != digests[k] {
				rep.Failures = append(rep.Failures, fmt.Sprintf("request %d: instance %d outcome digest %s differs from its first replay's %s", len(rep.Requests), k, got, digests[k]))
			}
		}
		rep.Requests = append(rep.Requests, req)
		spent += req
	}
	if reg != nil {
		var sc bytes.Buffer
		if err := reg.WritePrometheus(&sc); err != nil {
			return err
		}
		s, err := obs.ParseText(&sc)
		if err != nil {
			return err
		}
		rep.Events, rep.Fed, rep.DrainNS = s.Value("engine_events_total"), s.Value("engine_jobs_fed_total"), s.Value("engine_drain_ns_sum")
	}
	var err error
	if rep.RSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// replayOnce is one replay request: flowtime.Run then srpt.Run with
// default options, returning both results and the request's wall time in
// seconds. With a registry (traced runs) the same calls run on sessions
// carrying engine telemetry.
func replayOnce(ins *sched.Instance, reg *obs.Registry) (*flowtime.Result, *srpt.Result, float64, error) {
	t0 := time.Now()
	var fr *flowtime.Result
	var sr *srpt.Result
	var err error
	if reg == nil {
		fr, err = flowtime.Run(ins, flowtime.Options{Epsilon: replayEps})
	} else {
		fr, err = tracedFlowtime(ins, reg)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if reg == nil {
		sr, err = srpt.Run(ins, srpt.Options{})
	} else {
		sr, err = tracedSRPT(ins, reg)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return fr, sr, time.Since(t0).Seconds(), nil
}

// tracedFlowtime is flowtime.Run's body (validate, size-hinted session,
// one batch, close) with engine telemetry attached.
func tracedFlowtime(ins *sched.Instance, reg *obs.Registry) (*flowtime.Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	s, err := flowtime.NewSession(ins.Machines, flowtime.Options{Epsilon: replayEps, SizeHint: len(ins.Jobs)})
	if err != nil {
		return nil, err
	}
	s.SetTelemetry(engine.NewTelemetry(reg, ""))
	if err := s.FeedBatch(ins.Jobs); err != nil {
		s.Close()
		return nil, err
	}
	return s.Close()
}

// tracedSRPT is srpt.Run's body with engine telemetry attached.
func tracedSRPT(ins *sched.Instance, reg *obs.Registry) (*srpt.Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	s, err := srpt.NewSession(ins.Machines, srpt.Options{SizeHint: len(ins.Jobs)})
	if err != nil {
		return nil, err
	}
	s.SetTelemetry(engine.NewTelemetry(reg, ""))
	if err := s.FeedBatch(ins.Jobs); err != nil {
		s.Close()
		return nil, err
	}
	return s.Close()
}

// outcomeDigest hashes outcomes in job-id order: completion and rejection
// times with the assigned machine, bit-exact.
func outcomeDigest(outs ...*sched.Outcome) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, o := range outs {
		for _, m := range []map[int]float64{o.Completed, o.Rejected} {
			ids := make([]int, 0, len(m))
			for id := range m {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			put(uint64(len(ids)))
			for _, id := range ids {
				put(uint64(id))
				put(math.Float64bits(m[id]))
				put(uint64(o.Assigned[id]))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runReplay runs the replay workload in a replay-only child process and,
// traced, a second child with telemetry plus the in-process layer replays.
func runReplay(cfg runConfig) (*outcome, error) {
	rep, err := replayChild(cfg, false)
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	o.attempted = 2 * rep.Jobs * len(rep.Requests)
	for _, f := range rep.Failures {
		o.check(false, "%s", f)
	}
	if len(rep.Failures) > 0 {
		o.failed = o.attempted
	}
	if err := checkDigest(cfg, []byte(rep.Digest)); err != nil {
		o.check(false, "%v", err)
	}
	ratio := halvesRatio(rep.Requests)
	fmt.Printf("perfbench: %d replay requests of %d instances × %d jobs, second-half/first-half throughput %.3f\n",
		len(rep.Requests), replayInstances, replayJobs, ratio)
	if ratio < minHalfRatio {
		return nil, fmt.Errorf("steady-state guard: second-half throughput is %.2f of the first half's (< %.2f): per-job cost grows with run length; no number reported", ratio, minHalfRatio)
	}
	e := o.e2e
	e["setup_s"] = median(rep.Setups)
	e["verdict_p50_ms"] = quantile(append([]float64(nil), rep.Requests...), 0.50) * 1e3
	e["verdict_p99_ms"] = quantile(append([]float64(nil), rep.Requests...), 0.99) * 1e3
	e["jobs_per_s"] = replayRate(rep)
	e["mean_flow"] = rep.MeanFlow
	e["reject_frac"] = rep.RejectFrac
	e["peak_rss_mb"] = rep.RSSMB
	o.aliases = append(o.aliases, fmt.Sprintf("replay_jobs_per_s = %.6g jobs/s (2n ÷ flowtime+srpt wall, n=%d per request, m=%d, %d requests)",
		e["jobs_per_s"], rep.Jobs, replayMachines, len(rep.Requests)))
	if !cfg.trace {
		return o, nil
	}

	trep, err := replayChild(cfg, true)
	if err != nil {
		return nil, err
	}
	for _, f := range trep.Failures {
		o.check(false, "traced: %s", f)
	}
	o.check(trep.Digest == rep.Digest, "traced replay produced a different outcome digest")
	l := o.layers
	reqs := float64(len(trep.Requests))
	l["engine.events_per_job"] = trep.Events / trep.Fed
	l["engine.drain_ms_total"] = trep.DrainNS / reqs / 1e6 // per replay request
	l["workload.gen_s"] = trep.GenS
	ins := replayInstance(cfg.seed, 0)
	if err := layerReplays(l, cfg, [][]sched.Job{ins.Jobs}, replayMachines, false); err != nil {
		return nil, err
	}
	reqMS := mean(trep.Requests) * 1e3
	l["closure.unattributed_frac"] = (reqMS - l["engine.drain_ms_total"]) / reqMS
	l["tracing.overhead_frac"] = (e["jobs_per_s"] - replayRate(trep)) / e["jobs_per_s"]
	return o, nil
}

func replayRate(rep *replayReport) float64 {
	total := 0.0
	for _, p := range rep.Requests {
		total += p
	}
	return float64(2*rep.Jobs*len(rep.Requests)) / total
}

// halvesRatio compares throughput over the second half of the requests
// with the first half's.
func halvesRatio(times []float64) float64 {
	h := len(times) / 2
	var a, b float64
	for _, t := range times[:h] {
		a += t
	}
	for _, t := range times[h : 2*h] {
		b += t
	}
	return a / b
}

// replayChild runs the replay-only process and decodes its report.
func replayChild(cfg runConfig, traced bool) (*replayReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-role", "replay-worker", "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", tr, "-work", cfg.work)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("replay process: %v: %s", err, stderr.String())
	}
	rep := &replayReport{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("decoding replay report: %w", err)
	}
	return rep, nil
}
