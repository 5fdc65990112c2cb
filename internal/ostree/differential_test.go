package ostree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refTree is the naive reference model: a sorted slice with the same
// (Key, value-pair) contents, implementing every queried operation by scan.
type refTree struct {
	keys []Key
	vals [][2]float64 // parallel to keys
}

func newRef() *refTree { return &refTree{} }

func (r *refTree) insert(k Key, a, b float64) {
	i := sort.Search(len(r.keys), func(x int) bool { return !r.keys[x].Less(k) })
	r.keys = slices.Insert(r.keys, i, k)
	r.vals = slices.Insert(r.vals, i, [2]float64{a, b})
}

func (r *refTree) delete(k Key) bool {
	for i := range r.keys {
		if r.keys[i] == k {
			r.keys = slices.Delete(r.keys, i, i+1)
			r.vals = slices.Delete(r.vals, i, i+1)
			return true
		}
	}
	return false
}

func (r *refTree) deleteMin() (Key, bool) {
	if len(r.keys) == 0 {
		return Key{}, false
	}
	k := r.keys[0]
	return k, r.delete(k)
}

func (r *refTree) deleteMax() (Key, bool) {
	if len(r.keys) == 0 {
		return Key{}, false
	}
	k := r.keys[len(r.keys)-1]
	return k, r.delete(k)
}

func (r *refTree) min() (Key, bool) {
	if len(r.keys) == 0 {
		return Key{}, false
	}
	return r.keys[0], true
}

func (r *refTree) max() (Key, bool) {
	if len(r.keys) == 0 {
		return Key{}, false
	}
	return r.keys[len(r.keys)-1], true
}

func (r *refTree) sumP() float64 {
	var s float64
	for _, k := range r.keys {
		s += k.P
	}
	return s
}

func (r *refTree) sumVals() (a, b float64) {
	for _, v := range r.vals {
		a += v[0]
		b += v[1]
	}
	return a, b
}

func (r *refTree) rankStats(k Key) (before int, sumP, sumA, sumB float64, after int) {
	for i, o := range r.keys {
		switch {
		case o.Less(k):
			before++
			sumP += o.P
			sumA += r.vals[i][0]
			sumB += r.vals[i][1]
		case k.Less(o):
			after++
		}
	}
	return
}

// applyOps drives a flat index and the reference through the same
// operation stream and cross-checks every observable: delete results and
// order extremes exactly, rank counts exactly, float aggregates within the
// re-association tolerance (the two accumulate sums in different orders).
// Operation stream bytes come in (op, arg) pairs: op selects the operation,
// arg parameterizes it, so the fuzzer can explore arbitrary interleavings.
// Op 5 freezes the index through the snapshot container mid-sequence and
// continues on the restored copy, so resume points interleave arbitrarily
// with mutations. The final index is returned for structural checks.
func applyOps(t *testing.T, ops []byte) *Flat {
	t.Helper()
	fl := NewFlat()
	ref := newRef()
	nextID := 0
	for pc := 0; pc+1 < len(ops); pc += 2 {
		op, arg := ops[pc], ops[pc+1]
		switch op % 6 {
		case 0: // insert with values (p derives from arg, may collide)
			p := float64(arg%16) + 0.5
			k := Key{P: p, Release: float64(arg % 7), ID: nextID}
			nextID++
			a, b := p*2, float64(arg%5)
			fl.InsertVals(k, a, b)
			ref.insert(k, a, b)
		case 1: // delete-min
			gk, gok := fl.DeleteMin()
			wk, wok := ref.deleteMin()
			if gok != wok || gk != wk {
				t.Fatalf("op %d: DeleteMin got (%v,%v) want (%v,%v)", pc, gk, gok, wk, wok)
			}
		case 2: // delete-max
			gk, gok := fl.DeleteMax()
			wk, wok := ref.deleteMax()
			if gok != wok || gk != wk {
				t.Fatalf("op %d: DeleteMax got (%v,%v) want (%v,%v)", pc, gk, gok, wk, wok)
			}
		case 3: // delete an arbitrary (maybe absent) key
			k := Key{P: float64(arg%16) + 0.5, Release: float64(arg % 7), ID: int(arg) % (nextID + 1)}
			if got, want := fl.Delete(k), ref.delete(k); got != want {
				t.Fatalf("op %d: Delete(%v) got %v want %v", pc, k, got, want)
			}
		case 4: // rank query at a probe key (stored or not)
			k := Key{P: float64(arg%16) + 0.5, Release: float64(arg % 7), ID: int(arg) % (nextID + 1)}
			gb, gp, ga, gb2, gaft := fl.RankStatsVals(k)
			wb, wp, wa, wb2, waft := ref.rankStats(k)
			if gb != wb || gaft != waft || !approxEq(gp, wp) || !approxEq(ga, wa) || !approxEq(gb2, wb2) {
				t.Fatalf("op %d: RankStatsVals(%v) got (%d,%v,%v,%v,%d) want (%d,%v,%v,%v,%d)",
					pc, k, gb, gp, ga, gb2, gaft, wb, wp, wa, wb2, waft)
			}
			b2, p2, aft2 := fl.RankStats(k)
			if b2 != wb || aft2 != waft || !approxEq(p2, wp) {
				t.Fatalf("op %d: RankStats(%v) got (%d,%v,%d) want (%d,%v,%d)", pc, k, b2, p2, aft2, wb, wp, waft)
			}
			gmin, gminOK := fl.Min()
			wmin, wminOK := ref.min()
			gmax, gmaxOK := fl.Max()
			wmax, wmaxOK := ref.max()
			if gminOK != wminOK || gmin != wmin || gmaxOK != wmaxOK || gmax != wmax {
				t.Fatalf("op %d: Min/Max diverge: (%v,%v)/(%v,%v) want (%v,%v)/(%v,%v)",
					pc, gmin, gminOK, gmax, gmaxOK, wmin, wminOK, wmax, wmaxOK)
			}
		case 5: // snapshot + restore, continue on the copy
			fl = roundTripFlat(t, fl)
		}
		// Invariants after every op.
		if fl.Len() != len(ref.keys) {
			t.Fatalf("op %d: Len got %d want %d", pc, fl.Len(), len(ref.keys))
		}
		if !approxEq(fl.SumP(), ref.sumP()) {
			t.Fatalf("op %d: SumP got %v want %v", pc, fl.SumP(), ref.sumP())
		}
		ga, gb := fl.SumVals()
		wa, wb := ref.sumVals()
		if !approxEq(ga, wa) || !approxEq(gb, wb) {
			t.Fatalf("op %d: SumVals got (%v,%v) want (%v,%v)", pc, ga, gb, wa, wb)
		}
	}
	// Final full-order check.
	got := fl.Keys()
	if len(got) != len(ref.keys) {
		t.Fatalf("final: %d keys, want %d", len(got), len(ref.keys))
	}
	for i := range got {
		if got[i] != ref.keys[i] {
			t.Fatalf("final key %d: got %v want %v", i, got[i], ref.keys[i])
		}
	}
	return fl
}

func approxEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestFlatDifferentialRandom runs the differential model under long
// uniformly random operation streams (always on, independent of fuzzing).
func TestFlatDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4000)
		rng.Read(ops)
		applyOps(t, ops)
	}
}

// TestDifferentialRandom runs the differential model under insert-heavy
// streams. Uniform streams delete as often as they insert, so the index
// stays within a leaf or two; here about 60% of the ops insert, the index
// grows to well over a thousand elements, and leaf splits, group splits and
// multi-group rank scans are all cross-checked against the reference.
func TestDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 8000)
		for pc := 0; pc < len(ops); pc += 2 {
			if rng.Intn(10) < 6 {
				ops[pc] = 0
			} else {
				ops[pc] = byte(1 + rng.Intn(5))
			}
			ops[pc+1] = byte(rng.Intn(256))
		}
		if fl := applyOps(t, ops); len(fl.groups) < 2 {
			t.Fatalf("seed %d: the stream ended with %d group(s) of %d elements; it must span several groups",
				seed, len(fl.groups), fl.Len())
		}
	}
}

// FuzzFlatVsReference lets the fuzzer search for operation interleavings —
// including mid-sequence snapshot/restore — where the flat index diverges
// from the naive model.
func FuzzFlatVsReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 7, 4, 5, 1, 0, 0, 9, 2, 0, 3, 7})
	f.Add([]byte{0, 1, 0, 1, 5, 0, 0, 1, 4, 1, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		applyOps(t, ops)
	})
}

// FuzzTreeVsReference fuzzes the in-memory operations alone: every op byte
// is folded modulo 5, so no input spends ops on snapshot/restore and each
// stream is all inserts, deletions and rank queries against the naive model.
func FuzzTreeVsReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 7, 4, 5, 1, 0, 0, 9, 2, 0, 3, 7})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 4, 1, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		folded := make([]byte, len(ops))
		for pc := range ops {
			folded[pc] = ops[pc]
			if pc%2 == 0 {
				folded[pc] %= 5
			}
		}
		applyOps(t, folded)
	})
}

// TestRecyclingReuseKeepsQueriesExact grows one index through many
// insert/delete cycles, each inserting more than it deletes (exercising the
// leaf free list while the working set spans more and more leaves), and
// checks every deletion and a final rank query against the model.
func TestRecyclingReuseKeepsQueriesExact(t *testing.T) {
	fl := NewFlat()
	ref := newRef()
	rng := rand.New(rand.NewSource(99))
	id := 0
	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 40; i++ {
			k := Key{P: rng.Float64() * 10, Release: rng.Float64(), ID: id}
			id++
			fl.Insert(k)
			ref.insert(k, 0, 0)
		}
		for i := 0; i < 35; i++ {
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
	}
	probe := Key{P: 5, Release: 0.5, ID: id}
	gb, gp, gaft := fl.RankStats(probe)
	wb, wp, _, _, waft := ref.rankStats(probe)
	if gb != wb || gaft != waft || !approxEq(gp, wp) {
		t.Fatalf("post-recycling RankStats got (%d,%v,%d) want (%d,%v,%d)", gb, gp, gaft, wb, wp, waft)
	}
}
