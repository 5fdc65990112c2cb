// Package eventqtest holds test support for code that checkpoints an
// eventq.Queue.
package eventqtest

import (
	"bytes"
	"errors"
	"io"
	"sort"

	"repro/internal/snapshot"
)

// event is one EVTQ wire record, in the order eventq.Queue.Snapshot writes
// its fields.
type event struct {
	time                  float64
	ord                   uint64
	job, machine, version uint32
}

// SortedLayout rewrites the EVTQ section of an engine checkpoint so its
// events appear in pop order, (Time, ord) ascending, instead of the heap's
// own array layout. That is the layout the event queue's former calendar
// implementation wrote. Every other section is copied byte for byte, so the
// result is the same checkpoint a calendar-queue session would have written.
// changed reports whether the heap layout was not already sorted.
func SortedLayout(checkpoint []byte) (out []byte, changed bool, err error) {
	sr, err := snapshot.NewReader(bytes.NewReader(checkpoint))
	if err != nil {
		return nil, false, err
	}
	var buf bytes.Buffer
	sw := snapshot.NewWriter(&buf)
	found := false
	for {
		tag, d, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, err
		}
		if tag != "EVTQ" {
			payload := d.Rest()
			sw.Section(tag, func(e *snapshot.Encoder) { e.Raw(payload) })
			continue
		}
		found = true
		seq := d.U64()
		evs := make([]event, d.Count(8+8+4+4+4))
		for i := range evs {
			evs[i] = event{d.F64(), d.U64(), d.U32(), d.U32(), d.U32()}
		}
		if err := d.Done(); err != nil {
			return nil, false, err
		}
		less := func(i, j int) bool {
			if evs[i].time != evs[j].time {
				return evs[i].time < evs[j].time
			}
			return evs[i].ord < evs[j].ord
		}
		changed = !sort.SliceIsSorted(evs, less)
		sort.Slice(evs, less)
		sw.Section(tag, func(e *snapshot.Encoder) {
			e.U64(seq)
			e.U64(uint64(len(evs)))
			for _, ev := range evs {
				e.F64(ev.time)
				e.U64(ev.ord)
				e.U32(ev.job)
				e.U32(ev.machine)
				e.U32(ev.version)
			}
		})
	}
	if !found {
		return nil, false, errors.New("eventqtest: checkpoint has no EVTQ section")
	}
	if err := sw.Close(); err != nil {
		return nil, false, err
	}
	return buf.Bytes(), changed, nil
}
