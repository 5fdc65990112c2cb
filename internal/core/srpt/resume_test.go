package srpt

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func resumeInstances() []*sched.Instance {
	var out []*sched.Instance
	for seed := int64(0); seed < 3; seed++ {
		cfg := workload.DefaultConfig(500, 4, seed)
		cfg.Load = 1.4
		cfg.Weighted = true
		out = append(out, workload.Random(cfg))
	}
	// Single machine under heavy load: the preemption-dense regime where the
	// waiting index carries many banked remainders at any watermark.
	cfg := workload.DefaultConfig(300, 1, 11)
	cfg.Load = 1.6
	out = append(out, workload.Random(cfg))
	return out
}

// TestSnapshotResumeMatchesRun is the checkpoint/restore golden test of the
// preemptive comparator: a snapshot taken mid-stream carries banked
// remainders (partially executed volumes frozen at preemption) and the
// conservation ledger; restored runs must reproduce the uninterrupted
// Result bit-for-bit — including the end-of-run volume-conservation audit
// passing over preemption chains that straddle the snapshot.
func TestSnapshotResumeMatchesRun(t *testing.T) {
	for n, ins := range resumeInstances() {
		batch, err := Run(ins, Options{})
		if err != nil {
			t.Fatalf("instance %d: batch: %v", n, err)
		}
		for _, frac := range []float64{0.3, 0.7} {
			cut := int(frac * float64(len(ins.Jobs)))
			donor, err := NewSession(ins.Machines, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := donor.Snapshot(&buf); err != nil {
				t.Fatalf("instance %d cut %d: snapshot: %v", n, cut, err)
			}

			resumed, err := Restore(bytes.NewReader(buf.Bytes()), Options{})
			if err != nil {
				t.Fatalf("instance %d cut %d: restore: %v", n, cut, err)
			}
			if err := resumed.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			res, err := resumed.Close()
			if err != nil {
				t.Fatalf("instance %d cut %d: close resumed: %v", n, cut, err)
			}
			if !reflect.DeepEqual(batch.Outcome, res.Outcome) {
				t.Fatalf("instance %d cut %d: resumed outcome diverges from uninterrupted run", n, cut)
			}
			if batch.Preemptions != res.Preemptions {
				t.Fatalf("instance %d cut %d: preemptions %d resumed vs %d batch", n, cut, res.Preemptions, batch.Preemptions)
			}
			if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{AllowPreemption: true, RequireUnitSpeed: true}); err != nil {
				t.Fatalf("instance %d cut %d: resumed outcome fails audit: %v", n, cut, err)
			}

			if err := donor.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			dres, err := donor.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch.Outcome, dres.Outcome) {
				t.Fatalf("instance %d cut %d: Snapshot perturbed the donor", n, cut)
			}
		}
	}
}

// TestWeightedSnapshotResumeMatchesRun repeats the resume golden test for
// the migratory comparator: the dense fraction/min-proc/last-machine state
// and the global density pool must survive the round trip, with migrations
// across the snapshot boundary counted exactly once.
func TestWeightedSnapshotResumeMatchesRun(t *testing.T) {
	for n, ins := range resumeInstances() {
		batch, err := RunWeighted(ins, WeightedOptions{})
		if err != nil {
			t.Fatalf("instance %d: batch: %v", n, err)
		}
		for _, frac := range []float64{0.3, 0.7} {
			cut := int(frac * float64(len(ins.Jobs)))
			donor, err := NewWeightedSession(ins.Machines, WeightedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := donor.Snapshot(&buf); err != nil {
				t.Fatalf("instance %d cut %d: snapshot: %v", n, cut, err)
			}

			resumed, err := RestoreWeighted(bytes.NewReader(buf.Bytes()), WeightedOptions{})
			if err != nil {
				t.Fatalf("instance %d cut %d: restore: %v", n, cut, err)
			}
			if err := resumed.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			res, err := resumed.Close()
			if err != nil {
				t.Fatalf("instance %d cut %d: close resumed: %v", n, cut, err)
			}
			if !reflect.DeepEqual(batch.Outcome, res.Outcome) {
				t.Fatalf("instance %d cut %d: resumed outcome diverges from uninterrupted run", n, cut)
			}
			if batch.Preemptions != res.Preemptions || batch.Migrations != res.Migrations {
				t.Fatalf("instance %d cut %d: resumed tallies diverge (%d/%d vs %d/%d)",
					n, cut, res.Preemptions, res.Migrations, batch.Preemptions, batch.Migrations)
			}
			if err := sched.ValidateOutcome(ins, res.Outcome, sched.ValidateMode{AllowMigration: true, RequireUnitSpeed: true}); err != nil {
				t.Fatalf("instance %d cut %d: resumed outcome fails audit: %v", n, cut, err)
			}

			if err := donor.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			dres, err := donor.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch.Outcome, dres.Outcome) {
				t.Fatalf("instance %d cut %d: Snapshot perturbed the donor", n, cut)
			}
		}
	}
}

// TestRestoreRefusesV1Checkpoints feeds checkpoints written in the v1 wire
// format (the waiting and pool indexes serialized as structural treaps; 25
// of 40 jobs fed on 2 machines) to both restores: they must fail with the
// engine's tag mismatch, naming both tags, rather than misparse the old
// index layout.
func TestRestoreRefusesV1Checkpoints(t *testing.T) {
	for _, tc := range []struct {
		file, want string
		restore    func([]byte) error
	}{
		{"testdata/srpt_v1.snap", `"srpt/v1", restoring into "srpt/v2"`, func(b []byte) error {
			_, err := Restore(bytes.NewReader(b), Options{})
			return err
		}},
		{"testdata/wsrpt_v1.snap", `"wsrpt/v1", restoring into "wsrpt/v2"`, func(b []byte) error {
			_, err := RestoreWeighted(bytes.NewReader(b), WeightedOptions{})
			return err
		}},
	} {
		b, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.restore(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: restore error %v, want a tag mismatch containing %s", tc.file, err, tc.want)
		}
	}
}
