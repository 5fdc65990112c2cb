package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID: "E21", Kind: "table",
		Title: "Telemetry cost and the saturation signal: obs on/off A/B + busy-fraction curve",
		Claim: "observability: full engine telemetry keeps outcomes bit-identical at ~free throughput cost on the hinted batched path, and the sequencer busy fraction exposed at /metrics tracks offered load up to saturation",
		Run:   runE21,
	})
}

// runE21 answers the two questions the telemetry core must not leave open.
//
// Part one is the overhead A/B: the E18 hinted batched shard runs, once with
// reg == nil (the historical untelemetered path) and once with a live
// registry attached to every session — counters on every feed, completion
// and rejection, a depth gauge and a drain-latency histogram on every drain.
// Outcomes must be bit-identical (telemetry is observation, never behavior),
// the registry's own conservation law must hold (jobs fed == completed +
// rejected == n), and the ratio column reports the throughput cost — the
// target is ≤2%, inside trial noise on the fastest-of-K protocol.
//
// Part two is the saturation curve: an in-process front.Server (the E17
// harness with stalled shards and telemetry on) is driven at descending
// offered load by pacing each tenant's Push loop, and each cell reads the
// sequencer busy fraction and decide p99 back through the full exposition
// pipeline — WritePrometheus rendered to text, reparsed by obs.ParseText —
// exactly as a scraper would. The fraction must live in [0, 1] and fall as
// pacing drains the offered load; at the unpaced end the single-threaded
// sequencer approaches its wall and the fraction is the signal that says so.
func runE21(cfg Config) (fmt.Stringer, error) {
	ins, m := throughputWorkload(cfg)
	n := len(ins.Jobs)

	t := stats.NewTable(fmt.Sprintf("E21 — telemetry cost + busy-fraction saturation (n=%d, m=%d per shard, slab=256, ε=0.2, hinted)", n, m),
		"row", "wall ms", "jobs/sec", "ratio", "busy", "decide p99", "same")

	// Part one: obs off vs obs on across the shard fan-out.
	for _, shards := range []int{1, 2, 4, 8} {
		hint := engine.PerShardHint(n, shards)
		offEl, offOuts, _, err := bestShardRun(cfg, ins, m, shards, engine.ShardOptions{}, hint, nil)
		if err != nil {
			return nil, fmt.Errorf("E21: obs-off reference: %w", err)
		}
		reg := obs.NewRegistry()
		onEl, onOuts, _, err := bestShardRun(cfg, ins, m, shards, engine.ShardOptions{}, hint, reg)
		if err != nil {
			return nil, fmt.Errorf("E21: obs-on: %w", err)
		}
		if !reflect.DeepEqual(onOuts, offOuts) {
			return nil, fmt.Errorf("E21: %d shards: telemetry changed outcomes", shards)
		}
		// The registry must conserve what the run did. Counters accumulate
		// across bestShardRun's trials, so check divisibility-consistent
		// totals: fed == completed + rejected, and fed a positive multiple
		// of n.
		fed := reg.Counter("engine_jobs_fed_total").Value()
		done := reg.Counter("engine_jobs_completed_total").Value() +
			reg.Counter("engine_jobs_rejected_total").Value()
		if fed == 0 || fed%int64(n) != 0 {
			return nil, fmt.Errorf("E21: %d shards: registry counted %d fed jobs, want a positive multiple of %d", shards, fed, n)
		}
		if fed != done {
			return nil, fmt.Errorf("E21: %d shards: registry fed %d but completed+rejected %d", shards, fed, done)
		}
		offRate := float64(n) / offEl.Seconds()
		onRate := float64(n) / onEl.Seconds()
		t.AddRowf(fmt.Sprintf("obs off ×%d shards", shards), float64(offEl.Microseconds())/1000,
			offRate, 1.0, "-", "-", okMark(true))
		t.AddRowf(fmt.Sprintf("obs on ×%d shards", shards), float64(onEl.Microseconds())/1000,
			onRate, onRate/offRate, "-", "-", okMark(true))
	}

	// Part two: the busy-fraction curve under descending offered load.
	paces := []time.Duration{0, 50 * time.Microsecond, 400 * time.Microsecond}
	if cfg.Quick {
		paces = []time.Duration{0, 400 * time.Microsecond}
	}
	fracs := make([]float64, len(paces))
	for i, pace := range paces {
		cell, err := busyRun(cfg, pace)
		if err != nil {
			return nil, err
		}
		fracs[i] = cell.busy
		label := "unpaced"
		if pace > 0 {
			label = fmt.Sprintf("pace %v/job", pace)
		}
		t.AddRowf("load "+label, "-", "-", "-",
			fmt.Sprintf("%.3f", cell.busy), fmtDur(cell.decideP99), okMark(true))
	}
	// The endpoints of the curve must order: full offered load keeps the
	// sequencer busier than the most heavily paced run.
	if fracs[0] <= fracs[len(fracs)-1] {
		return nil, fmt.Errorf("E21: busy fraction did not fall with offered load: unpaced %.4f <= paced %.4f",
			fracs[0], fracs[len(fracs)-1])
	}
	return t, nil
}

type busyCell struct {
	busy      float64
	decideP99 float64 // µs, histogram bucket upper bound
}

// busyRun is one saturation cell: the E17 overload harness (stalled shards,
// telemetry on) at one per-job pace, read back through the text exposition.
func busyRun(cfg Config, pace time.Duration) (*busyCell, error) {
	var (
		tenants   = 4
		perTenant = cfg.scale(3000, 300)
		machines  = 4
		shards    = 2
	)
	reg := obs.NewRegistry()
	fcfg := front.Config{
		Policy:   "flowtime",
		Epsilon:  0.2,
		Machines: machines,
		Shards:   shards,
		Admission: admission.Config{
			ThrottleDepth: 16,
			RejectDepth:   48,
			Epsilon:       0.4,
			Burst:         1,
		},
		QueueDepth:    32,
		AwaitTenants:  tenants,
		ThrottleDelay: -1,
		Stall:         chaos.Stall{Every: 16, Delay: 200 * time.Microsecond},
		Obs:           reg,
	}
	if cfg.Quick {
		fcfg.Stall.Delay = 100 * time.Microsecond
	}
	srv, err := front.New(fcfg)
	if err != nil {
		return nil, err
	}

	var (
		wg      sync.WaitGroup
		runErrs = make([]error, tenants)
	)
	streams := make([]*front.Stream, tenants)
	for ten := 0; ten < tenants; ten++ {
		st, err := srv.OpenStream(ten)
		if err != nil {
			return nil, err
		}
		streams[ten] = st
	}
	for ten := 0; ten < tenants; ten++ {
		c := workload.DefaultConfig(perTenant, machines, int64(300+ten))
		c.Load = 2.0
		jobs := workload.Random(c).Jobs
		st := streams[ten]
		wg.Add(2)
		go func(ten int) {
			defer wg.Done()
			for _, j := range jobs {
				if err := st.Push(j); err != nil {
					runErrs[ten] = err
					return
				}
				if pace > 0 {
					time.Sleep(pace)
				}
			}
			st.CloseSend()
		}(ten)
		go func() {
			defer wg.Done()
			for range st.Acks() {
			}
		}()
	}
	wg.Wait()
	for ten, err := range runErrs {
		if err != nil {
			return nil, fmt.Errorf("E21: pace %v: tenant %d: %w", pace, ten, err)
		}
	}

	// Read the registry the way a scraper would: render, reparse. The busy
	// fraction is sampled here, while the wall clock still reflects the
	// feeding window, before the drain adds idle tail time.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("E21: rendering exposition: %w", err)
	}
	sc, err := obs.ParseText(&buf)
	if err != nil {
		return nil, fmt.Errorf("E21: reparsing exposition: %w", err)
	}
	for _, series := range []string{"front_sequencer_busy_fraction", "front_fed_total"} {
		if !sc.Has(series) {
			return nil, fmt.Errorf("E21: exposition is missing %s", series)
		}
	}
	busy := sc.Value("front_sequencer_busy_fraction")
	if busy < 0 || busy > 1.000001 {
		return nil, fmt.Errorf("E21: busy fraction %v outside [0, 1]", busy)
	}
	if _, err := srv.Drain(); err != nil {
		return nil, err
	}
	return &busyCell{
		busy:      busy,
		decideP99: sc.Quantile("front_decide_ns", 0.99) / 1e3,
	}, nil
}
