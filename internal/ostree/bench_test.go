package ostree

import (
	"math/rand"
	"testing"
)

func buildFlat(n int, seed uint64) *Flat {
	fl := NewFlat()
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < n; i++ {
		fl.Insert(Key{P: rng.Float64() * 100, Release: rng.Float64(), ID: i})
	}
	return fl
}

// probeKeys pre-generates the random inputs a benchmark consumes, so the
// measured loop times the data structure and not the PRNG (rand.Float64 is
// ~10ns — a third of a rank query).
func probeKeys(n int, seed int64) []Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{P: rng.Float64() * 100, ID: -1}
	}
	return keys
}

const probeMask = 1<<13 - 1 // 8192 pre-generated inputs, cycled

// BenchmarkPendingRankStats times one rank query against a 10k-element
// flat index, cycling a pre-generated probe stream. Gated on allocs/op in
// CI (cmd/benchcheck).
func BenchmarkPendingRankStats(b *testing.B) {
	fl := buildFlat(10000, 7)
	probes := probeKeys(probeMask+1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.RankStats(probes[i&probeMask])
	}
}

// BenchmarkFlatInsertDeleteMinMax times one churn cycle — insert,
// delete-min, insert, delete-max — on a 10k-element flat index. Gated on
// allocs/op in CI (cmd/benchcheck).
func BenchmarkFlatInsertDeleteMinMax(b *testing.B) {
	fl := buildFlat(10000, 9)
	probes := probeKeys(probeMask+1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := probes[i&probeMask]
		k.ID = 100000 + i
		fl.Insert(k)
		fl.DeleteMin()
		k = probes[(i+1)&probeMask]
		k.ID = 200000 + i
		fl.Insert(k)
		fl.DeleteMax()
	}
}
