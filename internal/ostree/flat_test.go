package ostree

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/snapshot"
)

// roundTripFlat freezes f through the real container format and restores it
// into a fresh index, checking that re-snapshotting the restored index
// reproduces the donor's bytes exactly (the bit-identical-resume contract).
func roundTripFlat(t *testing.T, f *Flat) *Flat {
	t.Helper()
	var buf bytes.Buffer
	sw := snapshot.NewWriter(&buf)
	sw.Section("FLAT", f.Snapshot)
	if err := sw.Close(); err != nil {
		t.Fatalf("flat snapshot: %v", err)
	}
	sr, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("flat snapshot reader: %v", err)
	}
	d, err := sr.Section("FLAT")
	if err != nil {
		t.Fatalf("flat snapshot section: %v", err)
	}
	nf := NewFlat()
	if err := nf.Restore(d); err != nil {
		t.Fatalf("flat restore: %v", err)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("flat restore trailing: %v", err)
	}
	var buf2 bytes.Buffer
	sw2 := snapshot.NewWriter(&buf2)
	sw2.Section("FLAT", nf.Snapshot)
	if err := sw2.Close(); err != nil {
		t.Fatalf("flat re-snapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("restored flat index re-snapshots to different bytes")
	}
	return nf
}

// TestFlatLeafChurnRecyclesArena hammers one index through many
// insert/delete cycles spanning multiple leaves and checks the leaf arena
// reaches steady state: once the working set's high-water mark is seen, the
// free list absorbs all further churn and the arena stops growing. Every
// deletion and a final rank query are cross-checked against the model.
func TestFlatLeafChurnRecyclesArena(t *testing.T) {
	fl := NewFlat()
	ref := newRef()
	rng := rand.New(rand.NewSource(99))
	id := 0
	arenaAfterWarmup := -1
	// Seed a resident working set, then churn it with balanced
	// insert/delete cycles: the live count oscillates but never trends up,
	// so any arena growth past warm-up is a recycling failure.
	for i := 0; i < 100; i++ {
		k := Key{P: rng.Float64() * 10, Release: rng.Float64(), ID: id}
		id++
		fl.Insert(k)
		ref.insert(k, 0, 0)
	}
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 90; i++ {
			k := Key{P: rng.Float64() * 10, Release: rng.Float64(), ID: id}
			id++
			fl.Insert(k)
			ref.insert(k, 0, 0)
		}
		for i := 0; i < 90; i++ {
			if rng.Intn(2) == 0 {
				gk, _ := fl.DeleteMin()
				wk, _ := ref.deleteMin()
				if gk != wk {
					t.Fatalf("cycle %d: DeleteMin %v want %v", cycle, gk, wk)
				}
			} else {
				gk, _ := fl.DeleteMax()
				wk, _ := ref.deleteMax()
				if gk != wk {
					t.Fatalf("cycle %d: DeleteMax %v want %v", cycle, gk, wk)
				}
			}
		}
		if cycle == 10 {
			arenaAfterWarmup = len(fl.leaves)
		}
	}
	if arenaAfterWarmup < 0 || len(fl.leaves) > 2*arenaAfterWarmup {
		t.Fatalf("leaf arena grew from %d to %d leaves under steady churn; free list not recycling",
			arenaAfterWarmup, len(fl.leaves))
	}
	probe := Key{P: 5, Release: 0.5, ID: id}
	gb, gp, gaft := fl.RankStats(probe)
	wb, wp, _, _, waft := ref.rankStats(probe)
	if gb != wb || gaft != waft || !approxEq(gp, wp) {
		t.Fatalf("post-churn RankStats got (%d,%v,%d) want (%d,%v,%d)", gb, gp, gaft, wb, wp, waft)
	}
}

// TestFlatRestoreRejectsCorruption spot-checks the restore validations the
// engine-level fuzz also exercises: out-of-order keys and oversized leaf
// counts must fail with positioned errors, never build a bad index.
func TestFlatRestoreRejectsCorruption(t *testing.T) {
	mangle := func(name string, f func(e *snapshot.Encoder)) {
		var buf bytes.Buffer
		sw := snapshot.NewWriter(&buf)
		sw.Section("FLAT", f)
		if err := sw.Close(); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		sr, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: reader: %v", name, err)
		}
		d, err := sr.Section("FLAT")
		if err != nil {
			t.Fatalf("%s: section: %v", name, err)
		}
		nf := NewFlat()
		if err := nf.Restore(d); err == nil {
			t.Fatalf("%s: corrupt flat snapshot restored without error", name)
		}
	}
	elem := func(e *snapshot.Encoder, p float64, id int) {
		e.F64(p)
		e.F64(0)
		e.Int(id)
		e.F64(0)
		e.F64(0)
	}
	sums := func(e *snapshot.Encoder, p float64) {
		e.F64(p)
		e.F64(0)
		e.F64(0)
	}
	group := func(e *snapshot.Encoder, nleaves int, p float64) {
		e.U32(uint32(nleaves))
		sums(e, p)
	}
	mangle("keys out of order", func(e *snapshot.Encoder) {
		e.U64(2)
		sums(e, 8)
		e.U64(1)
		group(e, 1, 8)
		e.U32(2)
		sums(e, 8)
		elem(e, 5, 1)
		elem(e, 3, 2) // P goes backwards
	})
	mangle("leaf count above cap", func(e *snapshot.Encoder) {
		e.U64(leafCap + 1)
		sums(e, 1)
		e.U64(1)
		group(e, 1, 1)
		e.U32(leafCap + 1)
		sums(e, 1)
		elem(e, 1, 1)
	})
	mangle("group leaf count above cap", func(e *snapshot.Encoder) {
		e.U64(groupCap + 1)
		sums(e, 1)
		e.U64(1)
		group(e, groupCap+1, 1)
		for i := 0; i <= groupCap; i++ {
			e.U32(1)
			sums(e, 1)
			elem(e, float64(i)+1, i+1)
		}
	})
	mangle("element total mismatch", func(e *snapshot.Encoder) {
		e.U64(3)
		sums(e, 1)
		e.U64(1)
		group(e, 1, 1)
		e.U32(1)
		sums(e, 1)
		elem(e, 1, 1)
	})
}
