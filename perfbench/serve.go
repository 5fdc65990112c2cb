package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The served configuration shared by both serve workloads.
const (
	serveMachines = 8
	serveShards   = 2
	serveTenants  = 2
	serveEps      = 0.2
	ckptEvery     = 50000
	ckptDeltas    = 4
	ckptKeep      = 2
)

// serveSpec is one serve workload.
type serveSpec struct {
	paced      bool    // open loop on the shared release-scaled schedule
	rate       float64 // jobs per measured second, all tenants together: the offered rate when paced, the fixed job budget when flooding
	checkpoint bool    // checkpoint lineage every ckptEvery fed jobs
}

var (
	pacedSpec = serveSpec{paced: true, rate: 20000, checkpoint: true}
	floodSpec = serveSpec{rate: 80000}
)

// tenantTrace is one tenant's generated jobs and their wire encoding.
type tenantTrace struct {
	jobs   []sched.Job
	wire   []byte  // NDJSON header plus one line per job
	hdrEnd int     // end of the header line in wire
	ends   []int   // end offset of each job's line in wire
	due    []int64 // paced send time of each job, ns after the schedule starts
}

// genTraces generates and encodes every tenant's trace, returning the
// generation time alone as well.
func genTraces(seed int64, perTenant int) ([]*tenantTrace, time.Duration, error) {
	var gen time.Duration
	trs := make([]*tenantTrace, serveTenants)
	for t := range trs {
		t0 := time.Now()
		jobs := workload.Random(workload.DefaultConfig(perTenant, serveMachines, seed*16+int64(t))).Jobs
		t1 := time.Now()
		var buf bytes.Buffer
		w, err := trace.NewNDJSONWriterHint(&buf, serveMachines, 0, len(jobs))
		if err != nil {
			return nil, 0, err
		}
		if err := w.Flush(); err != nil {
			return nil, 0, err
		}
		tr := &tenantTrace{jobs: jobs, hdrEnd: buf.Len(), ends: make([]int, len(jobs))}
		for k := range jobs {
			if err := w.Write(&jobs[k]); err != nil {
				return nil, 0, err
			}
			if err := w.Flush(); err != nil {
				return nil, 0, err
			}
			tr.ends[k] = buf.Len()
		}
		tr.wire = buf.Bytes()
		gen += t1.Sub(t0)
		trs[t] = tr
	}
	return trs, gen, nil
}

// schedule sets every job's due time on one wall-clock scale shared by all
// tenants: release × (seconds / latest release). Jobs of different tenants
// with equal releases are due together, so the deterministic merge never
// holds a job waiting for another tenant's clock to catch up.
func schedule(trs []*tenantTrace, seconds float64) {
	last := 0.0
	for _, tr := range trs {
		last = max(last, tr.jobs[len(tr.jobs)-1].Release)
	}
	scale := seconds * 1e9 / last
	for _, tr := range trs {
		tr.due = make([]int64, len(tr.jobs))
		for k := range tr.jobs {
			tr.due[k] = int64(tr.jobs[k].Release * scale)
		}
	}
}

// server is one running schedserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // ingest URL
	debug  string // telemetry URL ("" when untraced)
	dir    string // checkpoint directory
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches schedserve for the spec and returns once /healthz
// answers.
func startServer(cfg runConfig, spec serveSpec, traced bool, dir string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", addr, "-policy", "flowtime", "-eps", fmt.Sprint(serveEps),
		"-machines", strconv.Itoa(serveMachines), "-shards", strconv.Itoa(serveShards),
		"-await-tenants", strconv.Itoa(serveTenants)}
	if spec.checkpoint {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-checkpoint", filepath.Join(dir, "ck"), "-checkpoint-every", strconv.Itoa(ckptEvery),
			"-checkpoint-deltas", strconv.Itoa(ckptDeltas), "-checkpoint-keep", strconv.Itoa(ckptKeep))
	}
	s := &server{base: "http://" + addr, dir: dir, done: make(chan struct{})}
	if traced {
		daddr, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", daddr)
		s.debug = "http://" + daddr
	}
	s.cmd = exec.Command(cfg.schedserve, args...)
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	s.cmd.Stdout = io.Discard                                            // the drained report arrives over HTTP
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("schedserve exited during start-up (%v): %s", s.err, s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("schedserve not ready after 10s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops the process at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
	os.RemoveAll(s.dir)
}

// stop asks the process to drain and exit (SIGTERM) and waits for it,
// killing it after a grace period. It reports an unclean exit or a panic
// logged on stderr.
func (s *server) stop() error {
	defer os.RemoveAll(s.dir)
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("schedserve did not exit within 20s of SIGTERM")
	}
	if s.err != nil {
		return fmt.Errorf("schedserve exited uncleanly: %v: %s", s.err, s.stderr.String())
	}
	if strings.Contains(s.stderr.String(), "panic") {
		return fmt.Errorf("schedserve logged a panic: %s", s.stderr.String())
	}
	return nil
}

// tenantRun is one tenant's connection: what was sent when, and which
// verdict came back when. Times are ns after the schedule start.
type tenantRun struct {
	id        int
	tr        *tenantTrace
	sent      []int64
	acked     []int64
	verdict   []string
	streamErr error

	nacked   atomic.Int64  // verdicts received so far
	ackSig   chan struct{} // pinged (non-blocking, capacity 1) after each verdict
	acksDone chan struct{} // closed when the ack stream ends
	sentDone chan struct{} // closed when the body has been handed over in full
}

// scheduledBody is the request body of one feed connection. Each Read
// hands over every job line that is due (paced) or that the in-flight
// window allows (flood), and stamps the jobs it completes with the
// hand-over time. Under HTTP/1.1 chunked encoding every Read becomes one
// flushed chunk.
type scheduledBody struct {
	r     *tenantRun
	paced bool
	start <-chan struct{} // closed when the schedule starts
	t0    *time.Time      // the schedule start, valid once start is closed
	off   int             // bytes handed over
	next  int             // first job whose line is not yet fully handed over
}

func (b *scheduledBody) Read(p []byte) (int, error) {
	tr := b.r.tr
	if b.off < tr.hdrEnd {
		// The server reads the header before it registers the stream, so
		// the header goes out ahead of the schedule.
		n := copy(p, tr.wire[b.off:tr.hdrEnd])
		b.off += n
		return n, nil
	}
	<-b.start
	if b.off >= len(tr.wire) {
		close(b.r.sentDone)
		return 0, io.EOF
	}
	var limit int
	if !b.paced {
		for {
			if k := min(int(b.r.nacked.Load())+floodWindow, len(tr.ends)); k > b.next {
				limit = tr.ends[k-1]
				break
			}
			select {
			case <-b.r.ackSig:
			case <-b.r.acksDone:
				return 0, fmt.Errorf("tenant %d: ack stream ended with jobs unsent", b.r.id)
			}
		}
	} else {
		now := time.Since(*b.t0)
		if d := time.Duration(tr.due[b.next]) - now; d > 0 {
			time.Sleep(d)
			now = time.Since(*b.t0)
		}
		k := b.next + sort.Search(len(tr.due)-b.next, func(i int) bool { return tr.due[b.next+i] > int64(now) })
		limit = tr.ends[k-1]
	}
	n := copy(p, tr.wire[b.off:limit])
	b.off += n
	stamp := int64(time.Since(*b.t0))
	for b.next < len(tr.ends) && tr.ends[b.next] <= b.off {
		b.r.sent[b.next] = stamp
		b.next++
	}
	return n, nil
}

// readAcks consumes a feed response: one NDJSON verdict per job, then a
// done or error line.
func (r *tenantRun) readAcks(body io.Reader, t0 *time.Time) {
	defer close(r.acksDone)
	br := bufio.NewReaderSize(body, 64<<10)
	prefix := []byte(`{"id":`)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			now := int64(time.Since(*t0))
			if rest, ok := bytes.CutPrefix(line, prefix); ok {
				id, st, perr := parseAck(rest)
				switch {
				case perr != nil:
					r.streamErr = perr
				case id < 0 || id >= len(r.acked) || r.verdict[id] != "":
					r.streamErr = fmt.Errorf("tenant %d: unexpected or repeated ack for job %d", r.id, id)
				default:
					r.acked[id], r.verdict[id] = now, st
					r.nacked.Add(1)
					select {
					case r.ackSig <- struct{}{}:
					default:
					}
				}
			} else {
				var end struct {
					Done  bool   `json:"done"`
					Error string `json:"error"`
				}
				if jerr := json.Unmarshal(line, &end); jerr != nil || end.Error != "" || !end.Done {
					r.streamErr = fmt.Errorf("tenant %d: stream ended with %q", r.id, bytes.TrimSpace(line))
				}
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			r.streamErr = fmt.Errorf("tenant %d: reading acks: %w", r.id, err)
			return
		}
	}
}

// parseAck reads `123,"st":"ok"}` — the tail of an ack line.
func parseAck(b []byte) (int, string, error) {
	i := bytes.IndexByte(b, ',')
	if i <= 0 {
		return 0, "", fmt.Errorf("malformed ack %q", b)
	}
	id := 0
	for _, c := range b[:i] {
		if c < '0' || c > '9' {
			return 0, "", fmt.Errorf("malformed ack id %q", b[:i])
		}
		id = id*10 + int(c-'0')
	}
	switch st := bytes.TrimSpace(b[i+1:]); {
	case bytes.Equal(st, []byte(`"st":"ok"}`)):
		return id, chaos.AckOK, nil
	case bytes.Equal(st, []byte(`"st":"rej"}`)):
		return id, chaos.AckRej, nil
	case bytes.Equal(st, []byte(`"st":"dup"}`)):
		return id, chaos.AckDup, nil
	default:
		return 0, "", fmt.Errorf("malformed ack status %q", st)
	}
}

// servePass is everything one pass of a serve workload measured.
type servePass struct {
	trs       []*tenantTrace
	runs      []*tenantRun
	setupS    float64 // trace generation and encoding, server start until /healthz answers
	genS      float64 // trace generation alone
	span      time.Duration
	drain     time.Duration
	depth     int // sequencer queues plus engine lanes when the last verdict arrived
	report    front.Report
	raw       []byte
	rssMB     float64
	scrape    obs.Scrape // traced passes only
	submitted int
}

// servePassRun runs one pass against a fresh server: set-up, the timed
// feed of seconds' worth of jobs, drain, scrape, and shutdown.
func servePassRun(cfg runConfig, spec serveSpec, traced bool, seconds float64, pass int) (*servePass, error) {
	perTenant := int(spec.rate * seconds / serveTenants)
	p := &servePass{}
	t0 := time.Now()
	trs, gen, err := genTraces(cfg.seed, perTenant)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg, spec, traced, filepath.Join(cfg.work, fmt.Sprintf("run-%d-%d", os.Getpid(), pass)))
	if err != nil {
		return nil, err
	}
	p.setupS, p.trs, p.genS = time.Since(t0).Seconds(), trs, gen.Seconds()
	if err := p.feed(srv, spec, seconds); err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return p, nil
}

// feed runs the timed part of a pass against a ready server.
func (p *servePass) feed(srv *server, spec serveSpec, seconds float64) error {
	if !spec.paced {
		// The flood generator keeps to one processor, leaving the other to
		// the server instead of contending with it for both.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if spec.paced {
		schedule(p.trs, seconds)
	}
	tp := &http.Transport{DisableCompression: true}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp}

	start := make(chan struct{})
	var t0 time.Time
	p.runs = make([]*tenantRun, serveTenants)
	opened := make(chan error, serveTenants)
	var wg sync.WaitGroup
	for t, tr := range p.trs {
		n := len(tr.jobs)
		r := &tenantRun{id: t, tr: tr, sent: make([]int64, n), acked: make([]int64, n), verdict: make([]string, n),
			ackSig: make(chan struct{}, 1), acksDone: make(chan struct{}), sentDone: make(chan struct{})}
		p.runs[t] = r
		p.submitted += n
		body := &scheduledBody{r: r, paced: spec.paced, start: start, t0: &t0}
		req, err := http.NewRequest(http.MethodPost, srv.base+"/v1/feed?tenant="+strconv.Itoa(t), io.NopCloser(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := hc.Do(req)
			if err != nil {
				opened <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
				opened <- fmt.Errorf("tenant %d: feed refused: %s: %s", r.id, resp.Status, bytes.TrimSpace(b))
				return
			}
			opened <- nil
			<-start
			r.readAcks(resp.Body, &t0)
		}()
	}
	// Both streams are registered with the merge before the schedule
	// starts, so the await barrier never delays a due job.
	var openErr error
	for range p.trs {
		if err := <-opened; err != nil && openErr == nil {
			openErr = err
		}
	}
	t0 = time.Now()
	close(start)
	wg.Wait()
	if openErr != nil {
		return openErr
	}
	for _, r := range p.runs {
		select {
		case <-r.sentDone:
		default:
			if r.streamErr == nil {
				r.streamErr = fmt.Errorf("tenant %d: stream ended before every job was sent", r.id)
			}
		}
	}

	var st front.Stats
	if err := getJSON(hc, srv.base+"/v1/stats", &st); err != nil {
		return err
	}
	p.depth = st.Depth
	td := time.Now()
	raw, err := chaos.Drain(context.Background(), hc, srv.base)
	if err != nil {
		return err
	}
	p.drain = time.Since(td)
	p.span = time.Since(t0)
	p.raw = raw
	if err := json.Unmarshal(raw, &p.report); err != nil {
		return fmt.Errorf("decoding drained report: %w", err)
	}
	if srv.debug != "" {
		resp, err := hc.Get(srv.debug + "/metrics")
		if err != nil {
			return err
		}
		p.scrape, err = obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	p.rssMB, err = peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	return err
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// latencies returns every verdict latency in ms — from the due time when
// paced, from the hand-over when flooding — and the generator's lateness.
func (p *servePass) latencies(paced bool) (lat, late []float64) {
	for _, r := range p.runs {
		for k := range r.acked {
			if r.verdict[k] == "" {
				continue
			}
			from := r.sent[k]
			if paced {
				from = r.tr.due[k]
				late = append(late, float64(r.sent[k]-r.tr.due[k])/1e6)
			}
			lat = append(lat, float64(r.acked[k]-from)/1e6)
		}
	}
	return lat, late
}

// windowed splits a flood pass into 0.5 s windows by verdict time,
// leaves out the first and the last (partial) window, and returns the
// medians over the rest of each window's verdict rate and of its p50 and
// p99 latency: the steady state, which one stall does not set. ok is false
// when the pass has fewer than three full windows.
func (p *servePass) windowed() (rate, p50, p99 float64, ok bool) {
	const window = 5e8
	lat := map[int64][]float64{}
	var last int64
	for _, r := range p.runs {
		for k, t := range r.acked {
			lat[t/window] = append(lat[t/window], float64(t-r.sent[k])/1e6)
			last = max(last, t)
		}
	}
	var rates, p50s, p99s []float64
	for w := int64(1); w < last/window; w++ {
		rates = append(rates, float64(len(lat[w]))*1e9/window)
		p50s = append(p50s, quantile(lat[w], 0.50))
		p99s = append(p99s, quantile(lat[w], 0.99))
	}
	if len(rates) < 3 {
		return 0, 0, 0, false
	}
	return median(rates), median(p50s), median(p99s), true
}

// halves compares throughput over the first and second half of the
// verdicts: the ratio is near 1 in steady state and falls toward 1/3 when
// per-job cost grows linearly with run length.
func (p *servePass) halves() float64 {
	var ts []int64
	for _, r := range p.runs {
		ts = append(ts, r.acked...)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	h := len(ts) / 2
	first := float64(ts[h])
	second := float64(ts[len(ts)-1] - ts[h])
	return first / second
}

// verify runs the output checks of one pass.
func (p *servePass) verify(o *outcome, cfg runConfig) {
	rep := &p.report
	failed := 0
	for _, r := range p.runs {
		missing := 0
		for k := range r.verdict {
			if r.verdict[k] != chaos.AckOK && r.verdict[k] != chaos.AckRej {
				missing++
			}
		}
		if r.streamErr != nil {
			o.check(false, "%v", r.streamErr)
			missing = len(r.verdict)
		}
		failed += missing
	}
	o.attempted += p.submitted
	o.failed += failed
	o.check(failed == 0, "%d of %d jobs got no ok/rej verdict", failed, p.submitted)
	o.check(rep.Fed+rep.PreRejected == p.submitted, "conservation: fed %d + pre-rejected %d != submitted %d",
		rep.Fed, rep.PreRejected, p.submitted)
	o.check(rep.Completed+rep.Rejected == rep.Fed, "conservation: completed %d + rejected %d != fed %d",
		rep.Completed, rep.Rejected, rep.Fed)
	acfg := admission.Config{Epsilon: rep.AdmissionEpsilon, Burst: rep.AdmissionBurst}
	for _, tr := range rep.Tenants {
		err := admission.BudgetInvariant(acfg, admission.Tenant{ID: tr.ID, Fed: tr.Fed, FedWeight: tr.FedWeight,
			PreRejected: tr.PreRejected, PreRejectedWeight: tr.PreRejectedWeight}, 1e-9)
		o.check(err == nil, "%v", err)
	}
	rf := rejectFrac(rep)
	o.check(rf <= 2*serveEps, "Theorem 1: reject_frac %.4f exceeds 2ε = %.2f", rf, 2*serveEps)
	o.check(len(rep.Tenants) == serveTenants, "report lists %d tenants, want %d", len(rep.Tenants), serveTenants)
}

func rejectFrac(rep *front.Report) float64 {
	return float64(rep.Rejected+rep.PreRejected) / float64(max(rep.Fed+rep.PreRejected, 1))
}

// meanFlow is total flow over all decided jobs (rejected jobs count until
// their rejection, pre-rejected ones with zero flow: the paper's
// convention, and the only split the drained report carries).
func meanFlow(rep *front.Report) float64 {
	return rep.TotalFlow / float64(max(rep.Fed+rep.PreRejected, 1))
}

// serveSubRuns is how many passes, each against a fresh server, one serve
// run is split into; the end-to-end numbers are their medians.
const serveSubRuns = 3

// passNumbers are one pass's end-to-end numbers.
type passNumbers struct {
	setup, p50, p99, rss float64
	rate                 float64   // jobs_per_s
	ingest               float64   // jobs ÷ (first byte sent → drained report received)
	lat                  []float64 // every verdict latency, paced passes only
}

// numbers reduces a pass to its end-to-end numbers and runs its output and
// steady-state checks.
func (p *servePass) numbers(o *outcome, cfg runConfig, spec serveSpec) (passNumbers, error) {
	p.verify(o, cfg)
	lat, late := p.latencies(spec.paced)
	n := passNumbers{setup: p.setupS, p50: quantile(lat, 0.50), p99: quantile(lat, 0.99), rss: p.rssMB,
		ingest: float64(p.submitted) / p.span.Seconds()}
	n.rate = n.ingest
	ratio := p.halves()
	fmt.Printf("perfbench: pass: %d verdicts, p50 %.4g ms, p99 %.4g ms, generator late p99 %.4g ms, depth at drain %d, second-half/first-half throughput %.3f\n",
		len(lat), n.p50, n.p99, quantile(late, 0.99), p.depth, ratio)
	if spec.paced {
		if !p.keptUp() {
			return n, fmt.Errorf("steady-state guard: verdicts fell behind the offered rate; no number reported")
		}
		n.lat = lat
	} else {
		if ratio < minHalfRatio {
			return n, fmt.Errorf("steady-state guard: second-half throughput is %.2f of the first half's (< %.2f): per-job cost grows with run length; no number reported", ratio, minHalfRatio)
		}
		if rate, p50, p99, ok := p.windowed(); ok {
			n.rate, n.p50, n.p99 = rate, p50, p99
		}
	}
	return n, nil
}

// runServe runs a serve workload: serveSubRuns passes for the end-to-end
// medians and, traced, one more pass with telemetry on plus the
// in-process layer replays.
func runServe(cfg runConfig, spec serveSpec) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	sub := cfg.seconds / serveSubRuns
	var nums []passNumbers
	var pooled []float64 // every paced verdict latency of the run
	var first *servePass
	for i := 0; i < serveSubRuns; i++ {
		p, err := servePassRun(cfg, spec, false, sub, i)
		if err != nil {
			return nil, err
		}
		n, err := p.numbers(o, cfg, spec)
		if err != nil {
			return nil, err
		}
		nums = append(nums, n)
		pooled = append(pooled, n.lat...)
		if first == nil {
			first = p
			if err := checkDigest(cfg, p.raw); err != nil {
				o.check(false, "%v", err)
			}
		} else if !bytes.Equal(p.raw, first.raw) {
			o.check(false, "pass %d drained a different report than pass 0 on the same traces", i)
		}
		p.runs, p.trs = nil, nil // the per-job data is no longer needed
	}
	each := func(f func(passNumbers) float64) []float64 {
		var xs []float64
		for _, n := range nums {
			xs = append(xs, f(n))
		}
		return xs
	}
	e := o.e2e
	e["setup_s"] = median(each(func(n passNumbers) float64 { return n.setup }))
	if spec.paced {
		// The paced tail is set by a few checkpoint stalls per pass; a
		// quantile over every pass's verdicts averages over all of them.
		e["verdict_p50_ms"], e["verdict_p99_ms"] = quantile(pooled, 0.50), quantile(pooled, 0.99)
	} else {
		e["verdict_p50_ms"] = median(each(func(n passNumbers) float64 { return n.p50 }))
		e["verdict_p99_ms"] = median(each(func(n passNumbers) float64 { return n.p99 }))
	}
	e["jobs_per_s"] = median(each(func(n passNumbers) float64 { return n.rate }))
	e["mean_flow"] = meanFlow(&first.report)
	e["reject_frac"] = rejectFrac(&first.report)
	// A pass's peak depends on where the collector's cycles fall against
	// the checkpoint buffers; the mean over passes is steadier than any one.
	e["peak_rss_mb"] = mean(each(func(n passNumbers) float64 { return n.rss }))
	if spec.paced {
		o.aliases = append(o.aliases, fmt.Sprintf("ack_p50_ms = %.6g ms, ack_p99_ms = %.6g ms (%d verdicts over %d passes, open loop at %.0f jobs/s)",
			e["verdict_p50_ms"], e["verdict_p99_ms"], len(pooled), serveSubRuns, spec.rate))
	} else {
		o.aliases = append(o.aliases, fmt.Sprintf("ingest_jobs_per_s = %.6g jobs/s (median of %d passes of %d jobs, first byte → drained report); jobs_per_s is the median 0.5 s verdict rate",
			median(each(func(n passNumbers) float64 { return n.ingest })), serveSubRuns, first.submitted))
	}
	if !cfg.trace {
		return o, nil
	}

	tp, err := servePassRun(cfg, spec, true, sub, serveSubRuns)
	if err != nil {
		return nil, err
	}
	tn, err := tp.numbers(o, cfg, spec)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(tp.raw, first.raw) {
		o.check(false, "the traced pass drained a different report than the untraced passes")
	}
	tlat, tlate := tp.latencies(spec.paced)
	l := o.layers
	sc := tp.scrape
	fed := float64(max(tp.report.Fed, 1))
	l["front.merge_wait_us_mean"] = histMean(sc, "front_merge_pop_wait_ns") / 1e3
	l["front.decide_us_mean"] = histMean(sc, "front_decide_ns") / 1e3
	l["front.sequencer_busy_frac"] = sc.Value("front_sequencer_busy_ns_total") / float64(tp.span.Nanoseconds())
	l["front.ack_us_mean"] = histMean(sc, "front_ack_ns") / 1e3
	l["front.checkpoints"] = sc.Value("front_checkpoints_total")
	l["front.checkpoint_ms_mean"] = histMean(sc, "front_checkpoint_ns") / 1e6
	l["front.checkpoint_mb_mean"] = histMean(sc, "front_checkpoint_bytes") / (1 << 20)
	l["front.checkpoint_delta_ratio"] = sc.Value("front_checkpoint_delta_ratio")
	l["front.depth_at_drain"] = float64(tp.depth)
	l["engine.events_per_job"] = sc.Value("engine_events_total") / fed
	l["engine.drain_ms_total"] = sc.Value("engine_drain_ns_sum") / 1e6
	l["admission.prerejected"] = sc.Value("front_prerejected_total")
	l["client.late_p99_ms"] = quantile(tlate, 0.99)
	l["client.drain_ms"] = float64(tp.drain.Nanoseconds()) / 1e6
	l["workload.gen_s"] = tp.genS

	var jobs [][]sched.Job
	for _, tr := range tp.trs {
		jobs = append(jobs, tr.jobs)
	}
	if err := layerReplays(l, cfg, jobs, serveMachines, true); err != nil {
		return nil, err
	}

	if spec.paced {
		// The median verdict against the layers on its path: generator
		// lateness, decode, one sequencer iteration (merge wait plus the
		// median decide, which includes the ack send). The rest is
		// unattributed: HTTP framing, loopback TCP, goroutine wake-ups, ack
		// encoding and parsing, and the time a job waits at the merge for
		// the other tenant's next job.
		e2e := quantile(tlat, 0.5)
		layers := quantile(tlate, 0.5) + (l["trace.decode_ns_per_job"]/1e3+l["front.merge_wait_us_mean"]+
			sc.Quantile("front_decide_ns", 0.5)/1e3)/1e3
		l["closure.unattributed_frac"] = (e2e - layers) / e2e
		l["tracing.overhead_frac"] = (tn.p50 - e["verdict_p50_ms"]) / e["verdict_p50_ms"]
	} else {
		// Wall time per job against one sequencer iteration (merge wait plus
		// decide): the sequencer is the single point every job passes.
		wallUS := float64(tp.span.Nanoseconds()) / float64(tp.submitted) / 1e3
		l["closure.unattributed_frac"] = (wallUS - l["front.merge_wait_us_mean"] - l["front.decide_us_mean"]) / wallUS
		l["tracing.overhead_frac"] = (e["jobs_per_s"] - tn.rate) / e["jobs_per_s"]
	}
	return o, nil
}

// floodWindow bounds each flood connection's jobs in flight (sent, not yet
// acknowledged): enough to keep the server saturated, few enough that a
// verdict's latency measures the server rather than how far the kernel
// grew the loopback socket buffers.
const floodWindow = 4096

// minHalfRatio is the steady-state guard: the second half of a run must
// sustain at least this share of the first half's throughput.
const minHalfRatio = 0.6

// keptUp reports whether the paced verdict stream kept pace with the
// schedule: the last verdict lands within a second of the last due time.
func (p *servePass) keptUp() bool {
	var lastDue, lastAck int64
	for _, r := range p.runs {
		lastDue = max(lastDue, r.tr.due[len(r.tr.due)-1])
		for _, a := range r.acked {
			lastAck = max(lastAck, a)
		}
	}
	return lastAck-lastDue <= int64(time.Second)
}

// histMean is the mean of an unlabeled histogram in a scrape.
func histMean(sc obs.Scrape, base string) float64 {
	n := sc.Value(base + "_count")
	if n == 0 {
		return 0
	}
	return sc.Value(base+"_sum") / n
}
