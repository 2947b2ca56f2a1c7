package vip

import (
	"math"
	"sync"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pq"
)

// DistPointToPoint returns the exact indoor distance between two located
// points. Each call builds a fresh Explorer, matching the cost profile of
// the standalone VIP-tree distance computation the baseline algorithm uses;
// batch workloads should hold an Explorer per source partition instead.
// Safe for concurrent use (the throwaway Explorer is call-local).
func (t *Tree) DistPointToPoint(p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) float64 {
	if pp == qp {
		return t.venue.IntraPointDist(pp, p, q)
	}
	e := t.NewExplorer(pp)
	return e.PointToPoint(e.PointOffsets(p), q, qp)
}

// DistPointToPartition returns the exact indoor distance from a located
// point to partition f (zero when the point is inside f). Safe for
// concurrent use.
func (t *Tree) DistPointToPartition(p geom.Point, pp indoor.PartitionID, f indoor.PartitionID) float64 {
	if pp == f {
		return 0
	}
	e := t.NewExplorer(pp)
	return e.PointToPartition(e.PointOffsets(p), f)
}

// DistPartitionToPartition returns the exact indoor distance between two
// partitions (the paper's iMinD for partition entities). Safe for
// concurrent use.
func (t *Tree) DistPartitionToPartition(a, b indoor.PartitionID) float64 {
	if a == b {
		return 0
	}
	return t.NewExplorer(a).MinToPartition(b)
}

// FacilitySet marks a subset of partitions as facilities, supporting O(1)
// membership tests and per-leaf iteration during index searches. A
// FacilitySet is immutable after NewFacilitySet and safe for concurrent
// use.
type FacilitySet struct {
	member []bool
	list   []indoor.PartitionID
}

// NewFacilitySet builds a facility set over the venue's partitions.
func NewFacilitySet(v *indoor.Venue, parts []indoor.PartitionID) *FacilitySet {
	fs := &FacilitySet{member: make([]bool, v.NumPartitions())}
	for _, p := range parts {
		if !fs.member[p] {
			fs.member[p] = true
			fs.list = append(fs.list, p)
		}
	}
	return fs
}

// Contains reports whether partition p is a facility. Safe for concurrent
// use.
func (fs *FacilitySet) Contains(p indoor.PartitionID) bool { return fs.member[p] }

// Len returns the number of facilities. Safe for concurrent use.
func (fs *FacilitySet) Len() int { return len(fs.list) }

// List returns the facilities in insertion order. Safe for concurrent use;
// callers must not modify the returned slice.
func (fs *FacilitySet) List() []indoor.PartitionID { return fs.list }

// nnEntry is a priority-queue entry of the top-down NN search: either a tree
// node (lower-bound priority) or a facility partition (exact priority).
type nnEntry struct {
	node   NodeID
	part   indoor.PartitionID
	isPart bool
}

// SearchStats counts the work one top-down index search performed, on the
// same event definitions the bottom-up solver uses for core.Stats:
// DistanceCalcs is the number of exact point-to-partition distance
// computations and QueuePops the number of priority-queue dequeues. A
// plain value owned by the caller.
type SearchStats struct {
	DistanceCalcs int
	QueuePops     int
}

// NearestFacility returns the facility partition nearest to point p located
// in partition pp, and its exact indoor distance. It implements the
// top-down best-first VIP-tree NN search of Shao et al.: nodes enter the
// queue with exact lower bounds (distance to their nearest access door) and
// facilities with exact distances, so the first facility dequeued is the
// answer. Returns (NoPartition, +Inf) when the set is empty. Safe for
// concurrent use: the search state is call-local, and the tree and
// facility set are only read.
func (t *Tree) NearestFacility(p geom.Point, pp indoor.PartitionID, fs *FacilitySet) (indoor.PartitionID, float64) {
	return t.NearestFacilityCounted(p, pp, fs, nil)
}

// NearestFacilityCounted is NearestFacility with work accounting: when st
// is non-nil, the search's exact distance computations and queue dequeues
// are added to it, so callers comparing solvers (the baseline counts one
// NN search per client) charge the search the same way the bottom-up
// traversal charges itself. A nil st skips all accounting.
func (t *Tree) NearestFacilityCounted(p geom.Point, pp indoor.PartitionID, fs *FacilitySet, st *SearchStats) (indoor.PartitionID, float64) {
	var part [1]indoor.PartitionID
	var dist [1]float64
	parts, dists := t.nearest(p, pp, fs, 1, st, part[:0], dist[:0])
	if len(parts) == 0 {
		return indoor.NoPartition, math.Inf(1)
	}
	return parts[0], dists[0]
}

// KNearestFacilities returns up to k facilities nearest to p in ascending
// distance order, with their exact distances. A k of zero or less returns
// nil. Safe for concurrent use.
func (t *Tree) KNearestFacilities(p geom.Point, pp indoor.PartitionID, fs *FacilitySet, k int) ([]indoor.PartitionID, []float64) {
	if k <= 0 {
		return nil, nil
	}
	return t.nearest(p, pp, fs, k, nil, nil, nil)
}

// nnQueues recycles the NN search queues across calls and goroutines;
// each is reset before it goes back.
var nnQueues = sync.Pool{New: func() any { return new(pq.Bucket[nnEntry]) }}

// nearest is the top-down best-first search behind the NN and kNN queries:
// it appends up to k facilities nearest to p, in dequeue order, to parts
// and dists. The point's own partition, when it is a facility, comes first
// at distance zero without any search work, so a 1-NN query from inside a
// facility charges st nothing; the leaves then skip it. A non-nil st
// accumulates the search's distance computations and dequeues.
func (t *Tree) nearest(p geom.Point, pp indoor.PartitionID, fs *FacilitySet, k int, st *SearchStats, parts []indoor.PartitionID, dists []float64) ([]indoor.PartitionID, []float64) {
	if fs.Len() == 0 {
		return parts, dists
	}
	if fs.Contains(pp) {
		parts, dists = append(parts, pp), append(dists, 0)
		if len(parts) == k {
			return parts, dists
		}
	}
	e := t.NewExplorer(pp)
	offsets := e.PointOffsets(p)
	q := nnQueues.Get().(*pq.Bucket[nnEntry])
	defer func() {
		q.Reset()
		nnQueues.Put(q)
	}()
	q.Push(nnEntry{node: t.root}, 0)
	for !q.Empty() && len(parts) < k {
		entry, prio := q.Pop()
		if st != nil {
			st.QueuePops++
		}
		if entry.isPart {
			parts, dists = append(parts, entry.part), append(dists, prio)
			continue
		}
		nd := t.nodes[entry.node]
		if nd.leaf {
			for _, f := range nd.parts {
				if f != pp && fs.Contains(f) {
					if st != nil {
						st.DistanceCalcs++
					}
					q.Push(nnEntry{part: f, isPart: true}, e.PointToPartition(offsets, f))
				}
			}
			continue
		}
		for _, c := range nd.children {
			q.Push(nnEntry{node: c}, e.PointToNode(offsets, c))
		}
	}
	return parts, dists
}
