package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/front"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID: "E17", Kind: "table",
		Title: "Overloaded front door: admission shedding, latency, rejected weight vs ε",
		Claim: "robustness: pre-rejection at the boundary is the paper's rejection mechanism used as graceful degradation — shed weight stays within the per-tenant ε budget while ingest/decision latency stays bounded",
		Run:   runE17,
	})
}

// runE17 drives an overloaded front.Server in process: every shard worker is
// stalled (chaos.Stall), so depth crosses the admission watermarks and the
// server degrades from accept through throttle to pre-reject. Tenants push
// concurrently through the same Stream seam the HTTP handler uses, measuring
// per-job ingest latency (the Push call: queue admission under backpressure)
// and decision latency (Push return to ack: the merge + admission verdict).
// One row per admission ε: how much weight was shed, that it stayed within
// the paper-shaped budget ε·(fed weight) + burst, and what the latency tails
// looked like while the server was refusing work.
func runE17(cfg Config) (fmt.Stringer, error) {
	var (
		tenants   = 4
		perTenant = cfg.scale(4000, 400)
		machines  = 4
		shards    = 2
	)

	t := stats.NewTable(
		fmt.Sprintf("E17: overloaded front door (%d tenants × %d jobs, m=%d, %d stalled shards)",
			tenants, perTenant, machines, shards),
		"adm ε", "fed", "pre-rejected", "shed weight", "shed/fed wt", "budget ok",
		"ingest p50", "ingest p99", "decide p50", "decide p99")

	for _, eps := range []float64{0.1, 0.2, 0.4, 0.8} {
		row, err := overloadRun(cfg, eps, tenants, perTenant, machines, shards)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			stats.Fmt(eps),
			fmt.Sprintf("%d", row.fed),
			fmt.Sprintf("%d", row.preRejected),
			stats.Fmt(row.shedWeight),
			stats.Fmt(row.shedRatio),
			"yes", // overloadRun fails hard otherwise
			fmtDur(row.ingestP50), fmtDur(row.ingestP99),
			fmtDur(row.decideP50), fmtDur(row.decideP99),
		)
	}
	return t, nil
}

type overloadRow struct {
	fed, preRejected      int
	shedWeight, shedRatio float64
	ingestP50, ingestP99  float64
	decideP50, decideP99  float64
}

func fmtDur(us float64) string {
	return time.Duration(us * float64(time.Microsecond)).Round(time.Microsecond).String()
}

// overloadRun is one E17 cell: an overloaded server at one admission ε.
func overloadRun(cfg Config, eps float64, tenants, perTenant, machines, shards int) (*overloadRow, error) {
	fcfg := front.Config{
		Policy:   "flowtime",
		Epsilon:  0.2,
		Machines: machines,
		Shards:   shards,
		Admission: admission.Config{
			ThrottleDepth: 16,
			RejectDepth:   48,
			Epsilon:       eps,
			Burst:         1,
		},
		QueueDepth:    32,
		AwaitTenants:  tenants,
		ThrottleDelay: -1, // latency tails come from real backpressure, not sleeps
		Stall:         chaos.Stall{Every: 16, Delay: time.Millisecond},
	}
	if cfg.Quick {
		fcfg.Stall.Delay = 200 * time.Microsecond
	}
	srv, err := front.New(fcfg)
	if err != nil {
		return nil, err
	}

	var (
		mu      sync.Mutex
		ingest  []float64 // µs per Push call
		decide  []float64 // µs from Push return to ack
		wg      sync.WaitGroup
		runErrs = make([]error, tenants)
	)
	streams := make([]*front.Stream, tenants)
	base := time.Now()
	for ten := 0; ten < tenants; ten++ {
		st, err := srv.OpenStream(ten)
		if err != nil {
			return nil, err
		}
		streams[ten] = st
	}
	for ten := 0; ten < tenants; ten++ {
		c := workload.DefaultConfig(perTenant, machines, int64(100+ten))
		c.Load = 2.0 // well past capacity: overload is the point
		jobs := workload.Random(c).Jobs
		st := streams[ten]
		// pushed[id] is the Push-return time as nanoseconds past base, plus
		// one so zero means "not yet stored": an ack can overtake the store.
		pushed := make([]atomic.Int64, perTenant)
		wg.Add(2)
		go func(ten int) {
			defer wg.Done()
			locIngest := make([]float64, 0, len(jobs))
			for _, j := range jobs {
				start := time.Now()
				if err := st.Push(j); err != nil {
					runErrs[ten] = err
					return
				}
				pushed[j.ID].Store(int64(time.Since(base)) + 1)
				locIngest = append(locIngest, float64(time.Since(start))/float64(time.Microsecond))
			}
			st.CloseSend()
			mu.Lock()
			ingest = append(ingest, locIngest...)
			mu.Unlock()
		}(ten)
		go func() {
			defer wg.Done()
			locDecide := make([]float64, 0, len(jobs))
			for a := range st.Acks() {
				if at := pushed[a.ID].Load(); at != 0 {
					locDecide = append(locDecide, float64(int64(time.Since(base))-at+1)/float64(time.Microsecond))
				}
			}
			mu.Lock()
			decide = append(decide, locDecide...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for ten, err := range runErrs {
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", ten, err)
		}
	}
	rep, err := srv.Drain()
	if err != nil {
		return nil, err
	}

	// The degradation contract, checked before anything is reported: nothing
	// dropped, and every tenant's shed weight inside its ε budget.
	if rep.Fed+rep.PreRejected != tenants*perTenant {
		return nil, fmt.Errorf("E17 ε=%v: fed %d + pre-rejected %d != %d submitted",
			eps, rep.Fed, rep.PreRejected, tenants*perTenant)
	}
	if rep.Completed+rep.Rejected != rep.Fed {
		return nil, fmt.Errorf("E17 ε=%v: fed %d but completed %d + rejected %d",
			eps, rep.Fed, rep.Completed, rep.Rejected)
	}
	var fedW, shedW float64
	for _, tr := range rep.Tenants {
		ten := admission.Tenant{ID: tr.ID, Fed: tr.Fed, FedWeight: tr.FedWeight,
			PreRejected: tr.PreRejected, PreRejectedWeight: tr.PreRejectedWeight}
		if err := admission.BudgetInvariant(fcfg.Admission, ten, 1e-9); err != nil {
			return nil, fmt.Errorf("E17 ε=%v: %w", eps, err)
		}
		fedW += tr.FedWeight
		shedW += tr.PreRejectedWeight
	}

	sort.Float64s(ingest)
	sort.Float64s(decide)
	row := &overloadRow{
		fed:         rep.Fed,
		preRejected: rep.PreRejected,
		shedWeight:  shedW,
		ingestP50:   stats.Percentile(ingest, 0.50),
		ingestP99:   stats.Percentile(ingest, 0.99),
		decideP50:   stats.Percentile(decide, 0.50),
		decideP99:   stats.Percentile(decide, 0.99),
	}
	if fedW > 0 {
		row.shedRatio = shedW / fedW
	}
	return row, nil
}
