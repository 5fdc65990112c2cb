package eventq

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/snapshot"
)

func TestOrderingByTime(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 3, Kind: KindArrival})
	q.Push(Event{Time: 1, Kind: KindArrival})
	q.Push(Event{Time: 2, Kind: KindArrival})
	var got []float64
	for q.Len() > 0 {
		got = append(got, q.Pop().Time)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events popped out of order: %v", got)
	}
}

func TestKindBreaksTies(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 5, Kind: KindArrival, Job: 1})
	q.Push(Event{Time: 5, Kind: KindCompletion, Job: 2})
	q.Push(Event{Time: 5, Kind: KindBookkeeping, Job: 3})
	want := []Kind{KindCompletion, KindBookkeeping, KindArrival}
	for _, k := range want {
		if e := q.Pop(); e.Kind != k {
			t.Fatalf("got kind %v, want %v", e.Kind, k)
		}
	}
}

func TestInsertionOrderBreaksFullTies(t *testing.T) {
	var q Queue
	for id := 0; id < 10; id++ {
		q.Push(Event{Time: 1, Kind: KindArrival, Job: int32(id)})
	}
	for id := 0; id < 10; id++ {
		if e := q.Pop(); int(e.Job) != id {
			t.Fatalf("tie broken out of insertion order: got %d want %d", e.Job, id)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 1})
	if q.Peek().Time != 1 || q.Len() != 1 {
		t.Fatal("Peek modified the queue")
	}
}

func TestQuickAlwaysSorted(t *testing.T) {
	f := func(times []float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		for _, tt := range times {
			if tt < 0 {
				tt = -tt
			}
			q.Push(Event{Time: tt, Kind: Kind(rng.Intn(3))})
		}
		last := -1.0
		for q.Len() > 0 {
			e := q.Pop()
			if e.Time < last {
				return false
			}
			last = e.Time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewSource(42))
	last := 0.0
	pushed, popped := 0, 0
	for i := 0; i < 1000; i++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			// future events only: times must not precede the clock
			q.Push(Event{Time: last + rng.Float64()})
			pushed++
		} else {
			e := q.Pop()
			popped++
			if e.Time < last {
				t.Fatalf("time went backwards: %v < %v", e.Time, last)
			}
			last = e.Time
		}
	}
	if popped+q.Len() != pushed {
		t.Fatalf("lost events: pushed %d, popped %d, left %d", pushed, popped, q.Len())
	}
}

func TestGrowPreservesContents(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 2, Job: 1})
	q.Grow(1000)
	q.Push(Event{Time: 1, Job: 2})
	if e := q.Pop(); e.Job != 2 || q.Len() != 1 {
		t.Fatalf("Grow corrupted the queue: %+v len=%d", e, q.Len())
	}
}

// TestResetRetainsCapacityAndRestartsSeq covers the Reset contract of the
// 4-ary heap: emptied, seq back to zero (fresh-queue pop order), and no
// growth allocations on refill.
func TestResetRetainsCapacityAndRestartsSeq(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		var q Queue
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			q.Push(Event{Time: float64(rng.Intn(20)), Kind: Kind(rng.Intn(3)), Job: int32(i)})
		}
		for i := 0; i < 100; i++ {
			q.Pop()
		}
		q.Reset()
		if q.Len() != 0 {
			t.Fatalf("Reset left %d events", q.Len())
		}
		// A reset queue must behave exactly like a fresh one: same-time pushes
		// pop in insertion order starting from seq 0.
		q.Push(Event{Time: 1, Kind: KindArrival, Job: 10})
		q.Push(Event{Time: 1, Kind: KindArrival, Job: 11})
		if e := q.Pop(); e.Job != 10 {
			t.Fatalf("post-Reset seq order broken: got job %d", e.Job)
		}
		q.Pop()
		// Refill must not allocate: capacity was retained.
		allocs := testing.AllocsPerRun(3, func() {
			q.Reset()
			for i := 0; i < 400; i++ {
				q.Push(Event{Time: float64(i % 20), Kind: KindArrival, Job: int32(i)})
			}
			for q.Len() > 0 {
				q.Pop()
			}
		})
		if allocs > 0 {
			t.Fatalf("refill after Reset allocated %.1f times per run", allocs)
		}
	})
}

// FuzzQueueVsSorted is the differential fuzz of the heap against a plain
// slice kept sorted by (Time, Kind, push order): an arbitrary operation
// stream — pushes with fuzzer-chosen times and kinds, pops, and a
// mid-sequence snapshot whose restore replaces the heap — must pop the same
// events in the same order from both.
func FuzzQueueVsSorted(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 5, 6, 255, 8, 9}, uint16(5))
	f.Add([]byte{10, 10, 10, 10, 10, 10, 255, 255}, uint16(2))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, ops []byte, snapAt uint16) {
		if len(ops) > 2048 {
			return
		}
		var q Queue
		// ref is the sorted reference; Job is the push index, unique per
		// event, so it is also the final tie-break.
		var ref []Event
		before := func(a, b Event) bool {
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			return a.Job < b.Job
		}
		pop := func(step int) {
			got, want := q.Pop(), ref[0]
			ref = ref[1:]
			if got.Time != want.Time || got.Kind != want.Kind || got.Job != want.Job {
				t.Fatalf("step %d: heap popped %+v, sorted reference %+v", step, got, want)
			}
		}
		for step, op := range ops {
			if op >= 200 && q.Len() > 0 {
				pop(step)
			} else {
				// Times from a coarse grid (op low bits scaled) so exact ties
				// are common, occasionally huge. Never NaN: the contract
				// excludes it.
				tt := float64(op&63) * 0.25
				if op&64 != 0 {
					tt *= 1e6
				}
				ev := Event{Time: tt, Kind: Kind(op % 3), Job: int32(step)}
				q.Push(ev)
				i := sort.Search(len(ref), func(i int) bool { return before(ev, ref[i]) })
				ref = append(ref, Event{})
				copy(ref[i+1:], ref[i:])
				ref[i] = ev
			}
			if step == int(snapAt) {
				var buf bytes.Buffer
				w := snapshot.NewWriter(&buf)
				if w.Section("EVTQ", q.Snapshot) != nil || w.Close() != nil {
					t.Fatal("snapshot write failed")
				}
				r, err := snapshot.NewReader(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				d, err := r.Section("EVTQ")
				if err != nil {
					t.Fatal(err)
				}
				var nq Queue
				if err := nq.Restore(d); err != nil {
					t.Fatalf("restore failed: %v", err)
				}
				q = nq
			}
			if q.Len() != len(ref) {
				t.Fatalf("step %d: heap holds %d events, reference %d", step, q.Len(), len(ref))
			}
		}
		for q.Len() > 0 {
			pop(len(ops))
		}
	})
}

// BenchmarkHeapPushPop pushes a release-ordered stream with completion-style
// jitter — the engine's access pattern — and drains it, b.N events total.
func BenchmarkHeapPushPop(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	var q Queue
	q.Grow(1024)
	now := 0.0
	for i := 0; i < b.N; i++ {
		if q.Len() >= 1024 {
			e := q.Pop()
			if e.Time > now {
				now = e.Time
			}
			continue
		}
		// Arrivals march forward; completions land a bounded lead ahead.
		now += 0.01
		lead := rng.Float64() * 3
		q.Push(Event{Time: now + lead, Kind: Kind(rng.Intn(3)), Job: int32(i)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
}
