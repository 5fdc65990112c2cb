package flowtime

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotResumeMatchesRun is the checkpoint/restore golden test of the
// §2 scheduler: for every instance × option configuration of the streaming
// equivalence matrix, feed a prefix, snapshot, restore in a fresh session
// (as a fresh process would), feed the remainder, and the final Result —
// outcome, rule counters and, under TrackDual, the dual report — must be
// bit-identical to an uninterrupted batch Run. The donor session keeps
// feeding after the snapshot and must also finish identically, proving
// Snapshot never mutates.
func TestSnapshotResumeMatchesRun(t *testing.T) {
	for n, ins := range equivInstances(t) {
		for _, opt := range []Options{
			{Epsilon: 0.2},
			{Epsilon: 0.2, TrackDual: true},
			{Epsilon: 0.4, TrackDual: true},
			{Epsilon: 0.1},
		} {
			batch, err := Run(ins, opt)
			if err != nil {
				t.Fatalf("instance %d: batch: %v", n, err)
			}
			for _, frac := range []float64{0.25, 0.6, 0.95} {
				cut := int(frac * float64(len(ins.Jobs)))
				donor, err := NewSession(ins.Machines, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := donor.Snapshot(&buf); err != nil {
					t.Fatalf("instance %d opt %+v cut %d: snapshot: %v", n, opt, cut, err)
				}

				resumed, err := Restore(bytes.NewReader(buf.Bytes()), opt)
				if err != nil {
					t.Fatalf("instance %d opt %+v cut %d: restore: %v", n, opt, cut, err)
				}
				if err := resumed.FeedBatch(ins.Jobs[cut:]); err != nil {
					t.Fatal(err)
				}
				res, err := resumed.Close()
				if err != nil {
					t.Fatalf("instance %d opt %+v cut %d: close resumed: %v", n, opt, cut, err)
				}
				checkEqual(t, n, cut, "resumed", batch, res, opt.TrackDual)

				if err := donor.FeedBatch(ins.Jobs[cut:]); err != nil {
					t.Fatal(err)
				}
				dres, err := donor.Close()
				if err != nil {
					t.Fatal(err)
				}
				checkEqual(t, n, cut, "donor", batch, dres, opt.TrackDual)
			}
		}
	}
}

func checkEqual(t *testing.T, n, cut int, who string, want, got *Result, dual bool) {
	t.Helper()
	if !reflect.DeepEqual(want.Outcome, got.Outcome) {
		t.Fatalf("instance %d cut %d: %s outcome diverges from uninterrupted run", n, cut, who)
	}
	if want.Dispatches != got.Dispatches ||
		want.Rule1Rejections != got.Rule1Rejections ||
		want.Rule2Rejections != got.Rule2Rejections {
		t.Fatalf("instance %d cut %d: %s counters diverge (%d/%d/%d vs %d/%d/%d)", n, cut, who,
			got.Dispatches, got.Rule1Rejections, got.Rule2Rejections,
			want.Dispatches, want.Rule1Rejections, want.Rule2Rejections)
	}
	if dual {
		if !reflect.DeepEqual(want.Dual.Lambda, got.Dual.Lambda) ||
			!reflect.DeepEqual(want.Dual.CTilde, got.Dual.CTilde) ||
			want.Dual.BetaIntegral != got.Dual.BetaIntegral ||
			want.Dual.LambdaSum != got.Dual.LambdaSum ||
			!reflect.DeepEqual(want.Dual.Machines, got.Dual.Machines) {
			t.Fatalf("instance %d cut %d: %s dual report diverges", n, cut, who)
		}
	}
}

// TestRestoreRejectsOptionMismatch pins the option-echo guard: restoring a
// snapshot under a different ε (or dual mode) is a semantic fork and must
// fail loudly rather than resume into a subtly different run.
func TestRestoreRejectsOptionMismatch(t *testing.T) {
	ins := equivInstances(t)[0]
	s, err := NewSession(ins.Machines, Options{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedBatch(ins.Jobs[:100]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()), Options{Epsilon: 0.3}); err == nil ||
		!strings.Contains(err.Error(), "snapshot taken with") {
		t.Fatalf("ε mismatch accepted: %v", err)
	}
	if _, err := Restore(bytes.NewReader(buf.Bytes()), Options{Epsilon: 0.2, TrackDual: true}); err == nil ||
		!strings.Contains(err.Error(), "snapshot taken with") {
		t.Fatalf("dual-mode mismatch accepted: %v", err)
	}
}
