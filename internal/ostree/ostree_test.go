package ostree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randKey(rng *rand.Rand, idSpace int) Key {
	return Key{
		P:       float64(rng.Intn(20)) / 2,
		Release: float64(rng.Intn(10)),
		ID:      rng.Intn(idSpace),
	}
}

func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fl := NewFlat()
	ref := newRef()
	present := map[Key]bool{}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(6); {
		case op <= 2: // insert
			k := randKey(rng, 1000)
			for present[k] {
				k.ID = rng.Intn(1 << 20)
			}
			present[k] = true
			fl.Insert(k)
			ref.insert(k, 0, 0)
		case op == 3 && len(ref.keys) > 0: // delete random present key
			k := ref.keys[rng.Intn(len(ref.keys))]
			delete(present, k)
			if !fl.Delete(k) {
				t.Fatalf("step %d: Delete(%v) not found", step, k)
			}
			ref.delete(k)
		case op == 4 && len(ref.keys) > 0: // delete-min
			k, ok := fl.DeleteMin()
			if !ok || k != ref.keys[0] {
				t.Fatalf("step %d: DeleteMin = %v, want %v", step, k, ref.keys[0])
			}
			delete(present, k)
			ref.delete(k)
		case op == 5 && len(ref.keys) > 0: // delete-max
			k, ok := fl.DeleteMax()
			if !ok || k != ref.keys[len(ref.keys)-1] {
				t.Fatalf("step %d: DeleteMax = %v, want %v", step, k, ref.keys[len(ref.keys)-1])
			}
			delete(present, k)
			ref.delete(k)
		}
		if fl.Len() != len(ref.keys) {
			t.Fatalf("step %d: Len = %d, want %d", step, fl.Len(), len(ref.keys))
		}
		if step%97 == 0 {
			// spot-check aggregates and rank stats
			if !approxEq(fl.SumP(), ref.sumP()) {
				t.Fatalf("step %d: SumP = %v, want %v", step, fl.SumP(), ref.sumP())
			}
			probe := randKey(rng, 1000)
			b, s, a := fl.RankStats(probe)
			wb, ws, _, _, wa := ref.rankStats(probe)
			if b != wb || a != wa || !approxEq(s, ws) {
				t.Fatalf("step %d: RankStats(%v) = (%d,%v,%d), want (%d,%v,%d)",
					step, probe, b, s, a, wb, ws, wa)
			}
		}
	}
}

func TestEmptyTree(t *testing.T) {
	fl := NewFlat()
	if fl.Len() != 0 || fl.SumP() != 0 {
		t.Fatal("empty index has non-zero aggregates")
	}
	if a, b := fl.SumVals(); a != 0 || b != 0 {
		t.Fatal("empty index has non-zero value sums")
	}
	if _, ok := fl.Min(); ok {
		t.Fatal("Min on empty index reported ok")
	}
	if _, ok := fl.Max(); ok {
		t.Fatal("Max on empty index reported ok")
	}
	if _, ok := fl.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty index reported ok")
	}
	if _, ok := fl.DeleteMax(); ok {
		t.Fatal("DeleteMax on empty index reported ok")
	}
	if fl.Delete(Key{ID: 3}) {
		t.Fatal("Delete on empty index reported found")
	}
	b, s, a := fl.RankStats(Key{P: 1})
	if b != 0 || s != 0 || a != 0 {
		t.Fatal("RankStats on empty index non-zero")
	}
}

func TestKeysSortedProperty(t *testing.T) {
	f := func(ps []float64) bool {
		fl := NewFlat()
		for i, p := range ps {
			if p < 0 {
				p = -p
			}
			fl.Insert(Key{P: p, ID: i})
		}
		keys := fl.Keys()
		if len(keys) != len(ps) {
			return false
		}
		return sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a].Less(keys[b]) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankStatsExcludesSelf(t *testing.T) {
	fl := NewFlat()
	k := Key{P: 5, Release: 1, ID: 3}
	fl.Insert(k)
	fl.Insert(Key{P: 1, ID: 1})
	fl.Insert(Key{P: 9, ID: 9})
	before, sum, after := fl.RankStats(k)
	if before != 1 || sum != 1 || after != 1 {
		t.Fatalf("RankStats = (%d,%v,%d), want (1,1,1): stored key must not count itself", before, sum, after)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	fl := NewFlat()
	for i := 0; i < 100; i++ {
		fl.Insert(Key{P: float64(i), ID: i})
	}
	count := 0
	fl.Ascend(func(Key) bool { count++; return count < 40 })
	if count != 40 {
		t.Fatalf("Ascend visited %d keys, want 40", count)
	}
}
