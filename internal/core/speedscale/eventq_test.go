package speedscale

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/eventq/eventqtest"
)

// TestCrossQueueSnapshotResume resumes checkpoints in both EVTQ layouts on
// the heap event queue: the heap's own array layout, and the pop-order
// layout the former calendar queue wrote. Each event carries its packed ord
// word, so either layout must pop the donor's exact order and the resumed
// Result must match an uninterrupted batch Run bit-for-bit.
func TestCrossQueueSnapshotResume(t *testing.T) {
	resorted := false
	for n, ins := range resumeInstances() {
		opt := Options{Epsilon: 0.2, Alpha: ins.Alpha}
		batch, err := Run(ins, opt)
		if err != nil {
			t.Fatalf("instance %d: batch: %v", n, err)
		}
		cut := len(ins.Jobs) / 2
		donor, err := NewSession(ins.Machines, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := donor.FeedBatch(ins.Jobs[:cut]); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := donor.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := donor.Close(); err != nil {
			t.Fatal(err)
		}
		sorted, changed, err := eventqtest.SortedLayout(buf.Bytes())
		if err != nil {
			t.Fatalf("instance %d: %v", n, err)
		}
		resorted = resorted || changed
		for _, ckpt := range []struct {
			layout string
			data   []byte
		}{{"heap", buf.Bytes()}, {"sorted", sorted}} {
			heir, err := Restore(bytes.NewReader(ckpt.data), opt)
			if err != nil {
				t.Fatalf("instance %d: restore %s layout: %v", n, ckpt.layout, err)
			}
			if err := heir.FeedBatch(ins.Jobs[cut:]); err != nil {
				t.Fatal(err)
			}
			res, err := heir.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, batch) {
				t.Fatalf("instance %d: resume from the %s layout diverged from the uninterrupted run", n, ckpt.layout)
			}
		}
	}
	if !resorted {
		t.Fatal("every checkpoint's heap layout was already sorted; the pop-order layout was never exercised")
	}
}
