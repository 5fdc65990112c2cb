// Package ostree implements the order-statistic rank index behind every
// pending queue of the scheduling policies. At each job arrival the
// flow-time dispatch rule needs, for a hypothetical insertion position in
// the shortest-processing-time order, the prefix sum Σ_{ℓ≺j} p_iℓ and the
// count |{ℓ ≻ j}|, plus delete-min (start the next job) and delete-max
// (Rejection Rule 2). Flat (flat.go) answers all of these: an implicit
// three-level B-tree over flat slices whose exact state, cached float sums
// included, snapshots and restores bit for bit.
//
// Keys order by (P, Release, ID), all strict, so the order is total whenever
// IDs are unique.
//
// Each element may carry an auxiliary value pair aggregated alongside the
// P-sums (InsertVals / RankStatsVals); the weighted scheduler stores
// (processing time, weight) there while keying by density. Leaves are
// allocated from an internal arena and recycled through a free list, so
// steady-state insert/delete cycles do not allocate.
package ostree

// Key identifies an element in SPT order: processing time first, then
// release time, then job id as the final tie-break.
type Key struct {
	P       float64
	Release float64
	ID      int
}

// Less reports strict order between keys.
func (k Key) Less(o Key) bool {
	if k.P != o.P {
		return k.P < o.P
	}
	if k.Release != o.Release {
		return k.Release < o.Release
	}
	return k.ID < o.ID
}
