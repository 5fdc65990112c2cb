package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/core/flowtime"
	"repro/internal/core/srpt"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// layerReplays times each layer's public calls over the workload's own
// jobs, one slice per stream (tenant), and fills the per-layer metrics:
// NDJSON encode and decode, the engine.Shard fan-out, flowtime sessions fed
// in batches with snapshots and lineage writes at the checkpoint cadence,
// and flowtime.Run / srpt.Run / sched.ValidateOutcome on the first stream
// as an instance.
func layerReplays(l map[string]float64, cfg runConfig, streams [][]sched.Job, machines int, byTenant bool) error {
	total := 0
	for _, s := range streams {
		total += len(s)
	}

	// trace: the wire bytes each stream is sent as, then the server's
	// strict decode over them.
	var wires [][]byte
	t0 := time.Now()
	for _, s := range streams {
		var buf bytes.Buffer
		if err := trace.WriteInstanceNDJSON(&buf, &sched.Instance{Machines: machines, Jobs: s}); err != nil {
			return err
		}
		wires = append(wires, buf.Bytes())
	}
	l["client.encode_ns_per_job"] = float64(time.Since(t0).Nanoseconds()) / float64(total)
	t0 = time.Now()
	size := 0
	for k, w := range wires {
		size += len(w)
		nr, err := trace.NewNDJSONReader(bytes.NewReader(w))
		if err != nil {
			return err
		}
		nr = nr.Strict()
		n := 0
		for {
			_, err := nr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("decoding stream %d: %w", k, err)
			}
			n++
		}
		if n != len(streams[k]) {
			return fmt.Errorf("stream %d decoded %d jobs, encoded %d", k, n, len(streams[k]))
		}
	}
	l["trace.decode_ns_per_job"] = float64(time.Since(t0).Nanoseconds()) / float64(total)
	l["trace.bytes_per_job"] = float64(size) / float64(total)

	merged, owner := mergeStreams(streams, byTenant)

	// engine: the batched fan-out over flowtime sessions, as the server
	// builds it.
	feeders := make([]engine.Feeder, serveShards)
	sessions := make([]*flowtime.Session, serveShards)
	for k := range feeders {
		s, err := flowtime.NewSession(machines, flowtime.Options{Epsilon: serveEps})
		if err != nil {
			return err
		}
		sessions[k], feeders[k] = s, s
	}
	route := engine.RouteByID
	if byTenant {
		route = engine.RouteByTenant(func(j *sched.Job) int { return j.ID >> 32 })
	}
	sh := engine.NewShardOpts(feeders, engine.ShardOptions{Route: route})
	t0 = time.Now()
	for k := range merged {
		if err := sh.Feed(merged[k]); err != nil {
			return err
		}
	}
	l["engine.feed_ns_per_job"] = float64(time.Since(t0).Nanoseconds()) / float64(total)
	t0 = time.Now()
	if err := sh.Wait(); err != nil {
		return err
	}
	l["engine.wait_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	for _, s := range sessions {
		if _, err := s.Close(); err != nil {
			return err
		}
	}

	if err := sessionReplay(l, cfg, merged, owner, len(streams), machines, total); err != nil {
		return err
	}

	// The offline entry points on the first stream as an instance.
	ins := &sched.Instance{Machines: machines, Jobs: streams[0]}
	var fr *flowtime.Result
	runs := func(opt flowtime.Options) (float64, error) {
		var ts []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			r, err := flowtime.Run(ins, opt)
			if err != nil {
				return 0, err
			}
			ts = append(ts, time.Since(t).Seconds())
			fr = r
		}
		return median(ts), nil
	}
	pooled, err := runs(flowtime.Options{Epsilon: serveEps})
	if err != nil {
		return err
	}
	seq, err := runs(flowtime.Options{Epsilon: serveEps, ParallelDispatch: 1})
	if err != nil {
		return err
	}
	l["flowtime.run_s"] = pooled
	l["dispatch.pool_overhead_frac"] = (pooled - seq) / pooled
	t0 = time.Now()
	if _, err := srpt.Run(ins, srpt.Options{}); err != nil {
		return err
	}
	l["srpt.run_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := sched.ValidateOutcome(ins, fr.Outcome, sched.ValidateMode{RequireUnitSpeed: true}); err != nil {
		return fmt.Errorf("flowtime outcome failed validation: %w", err)
	}
	l["sched.validate_s"] = time.Since(t0).Seconds()
	return nil
}

// sessionReplay feeds one flowtime session per stream in batches of 256,
// snapshotting every session and writing each snapshot to its checkpoint
// lineage at the serve-paced cadence (a quarter of the jobs when that is
// sooner). Feed time excludes the snapshots.
func sessionReplay(l map[string]float64, cfg runConfig, merged []sched.Job, owner []int, n, machines, total int) error {
	dir := filepath.Join(cfg.work, fmt.Sprintf("layers-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sessions := make([]*flowtime.Session, n)
	lineages := make([]*snapshot.Lineage, n)
	batches := make([][]sched.Job, n)
	for k := range sessions {
		s, err := flowtime.NewSession(machines, flowtime.Options{Epsilon: serveEps})
		if err != nil {
			return err
		}
		sessions[k] = s
		if lineages[k], err = snapshot.OpenLineage(filepath.Join(dir, "ck"+strconv.Itoa(k)),
			snapshot.LineageOptions{Keep: ckptKeep, DeltaEvery: ckptDeltas}); err != nil {
			return err
		}
	}
	flush := func(k int) error {
		err := sessions[k].FeedBatch(batches[k])
		batches[k] = batches[k][:0]
		return err
	}
	cadence := min(ckptEvery, total/4)
	var feed, encode, write time.Duration
	var snapBytes, writes int
	var buf bytes.Buffer
	for i := range merged {
		k := owner[i]
		t := time.Now()
		batches[k] = append(batches[k], merged[i])
		if len(batches[k]) == 256 {
			if err := flush(k); err != nil {
				return err
			}
		}
		feed += time.Since(t)
		if (i+1)%cadence != 0 {
			continue
		}
		for k := range sessions {
			t := time.Now()
			if err := flush(k); err != nil {
				return err
			}
			feed += time.Since(t)
			buf.Reset()
			t = time.Now()
			if err := sessions[k].Snapshot(&buf); err != nil {
				return err
			}
			encode += time.Since(t)
			snapBytes += buf.Len()
			t = time.Now()
			if _, err := lineages[k].Write(buf.Bytes(), false); err != nil {
				return err
			}
			write += time.Since(t)
			writes++
		}
	}
	t := time.Now()
	for k := range sessions {
		if err := flush(k); err != nil {
			return err
		}
	}
	feed += time.Since(t)
	for _, s := range sessions {
		if _, err := s.Close(); err != nil {
			return err
		}
	}
	l["flowtime.feed_ns_per_job"] = float64(feed.Nanoseconds()) / float64(total)
	l["snapshot.encode_ms_per_mb"] = float64(encode.Nanoseconds()) / 1e6 / (float64(snapBytes) / (1 << 20))
	l["snapshot.lineage_write_ms_mean"] = float64(write.Nanoseconds()) / 1e6 / float64(writes)
	return nil
}

// mergeStreams orders the streams' jobs the way the server's merge does —
// by (release, stream) — folding the stream into the id as the server's
// gid (stream<<32 | id) when byTenant. owner[i] is merged[i]'s stream.
func mergeStreams(streams [][]sched.Job, byTenant bool) (merged []sched.Job, owner []int) {
	pos := make([]int, len(streams))
	for {
		best := -1
		for s := range streams {
			if pos[s] < len(streams[s]) && (best < 0 || streams[s][pos[s]].Release < streams[best][pos[best]].Release) {
				best = s
			}
		}
		if best < 0 {
			return merged, owner
		}
		j := streams[best][pos[best]]
		pos[best]++
		if byTenant {
			j.ID = best<<32 | j.ID
		}
		merged = append(merged, j)
		owner = append(owner, best)
	}
}

// checkDigest compares an output digest with the one recorded by an
// earlier run of the same binaries, workload, seed and length, and records
// it when none exists: the same seed must always produce the same output.
func checkDigest(cfg runConfig, output []byte) error {
	code := sha256.New()
	for _, p := range []string{cfg.schedserve, selfPath()} {
		if p == "" {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		code.Write(b)
	}
	dir := filepath.Join(cfg.work, "digests", hex.EncodeToString(code.Sum(nil))[:16])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := sha256.Sum256(output)
	got := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%gs", cfg.workload, cfg.seed, cfg.seconds))
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(got), 0o644)
	}
	if err != nil {
		return err
	}
	if string(want) != got {
		return fmt.Errorf("output digest %s differs from an earlier run with the same seed (%s)", got, want)
	}
	return nil
}

func selfPath() string {
	p, err := os.Executable()
	if err != nil {
		return ""
	}
	return p
}
