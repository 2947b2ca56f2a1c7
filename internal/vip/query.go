package vip

import (
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
	return e.PointToPoint(e.PointOffsetsAppend(make([]float64, 0, len(e.SrcDoors())), p), q, qp)
}

// DistPointToPartition returns the exact indoor distance from a located
// point to partition f (zero when the point is inside f). Safe for
// concurrent use.
func (t *Tree) DistPointToPartition(p geom.Point, pp indoor.PartitionID, f indoor.PartitionID) float64 {
	if pp == f {
		return 0
	}
	e := t.NewExplorer(pp)
	return e.PointToPartition(e.PointOffsetsAppend(make([]float64, 0, len(e.SrcDoors())), p), f)
}

// DistPartitionToPartition returns the exact indoor distance between two
// partitions (the paper's iMinD for partition entities). Safe for
// concurrent use.
func (t *Tree) DistPartitionToPartition(a, b indoor.PartitionID) float64 {
	if a == b {
		return 0
	}
	return t.NewExplorer(a).PointToPartition(nil, b)
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

// Neighbor is one facility of a Nearest answer with its exact indoor
// distance. A plain value; copy freely.
type Neighbor struct {
	Facility indoor.PartitionID
	Dist     float64
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

// nnEntry is a priority-queue entry of Nearest: either a tree node (lower
// bound priority) or a facility partition (exact priority).
type nnEntry struct {
	node   NodeID
	part   indoor.PartitionID
	isPart bool
}

// nnQueues recycles the search queues across calls and goroutines; each
// is reset before it goes back.
var nnQueues = sync.Pool{New: func() any { return new(pq.Bucket[nnEntry]) }}

// Nearest is the top-down best-first VIP-tree facility search of Shao et
// al. The NN, kNN and range queries are this one search and differ only in
// when it stops: it appends to dst up to k facilities (all of them when k
// is negative) within indoor distance r of point p located in partition pp
// (inclusive), in dequeue order, and returns the extended slice.
//
// Nodes enter the queue with exact lower bounds (the distance to their
// nearest access door) and facilities with exact distances, so facilities
// dequeue in ascending distance; equal distances dequeue in push order.
// Nothing farther than r is pushed. The point's own partition, when it is
// a facility, comes first at distance zero without any search work, so a
// 1-NN search from inside a facility charges st nothing; the leaves then
// skip it. A k of zero, a negative r or an empty set appends nothing.
//
// A non-nil st accumulates the search's exact distance computations and
// dequeues; a nil st skips all accounting. Safe for concurrent use: the
// search state is call-local, and the tree and facility set are only read.
func (t *Tree) Nearest(p geom.Point, pp indoor.PartitionID, fs *FacilitySet, k int, r float64, st *SearchStats, dst []Neighbor) []Neighbor {
	if k == 0 || r < 0 || fs.Len() == 0 {
		return dst
	}
	n := 0 // facilities appended; never equals a negative k
	if fs.Contains(pp) {
		dst = append(dst, Neighbor{Facility: pp})
		if n++; n == k {
			return dst
		}
	}
	e := t.NewExplorer(pp)
	offsets := e.PointOffsetsAppend(make([]float64, 0, len(e.SrcDoors())), p)
	q := nnQueues.Get().(*pq.Bucket[nnEntry])
	defer func() {
		q.Reset()
		nnQueues.Put(q)
	}()
	q.Push(nnEntry{node: t.root}, 0)
	for !q.Empty() && n != k {
		entry, prio := q.Pop()
		if st != nil {
			st.QueuePops++
		}
		if entry.isPart {
			dst = append(dst, Neighbor{Facility: entry.part, Dist: prio})
			n++
			continue
		}
		nd := t.nodes[entry.node]
		if nd.leaf {
			for _, f := range nd.parts {
				if f != pp && fs.Contains(f) {
					if st != nil {
						st.DistanceCalcs++
					}
					if d := e.PointToPartition(offsets, f); d <= r {
						q.Push(nnEntry{part: f, isPart: true}, d)
					}
				}
			}
			continue
		}
		for _, c := range nd.children {
			if b := e.PointToNode(offsets, c); b <= r {
				q.Push(nnEntry{node: c}, b)
			}
		}
	}
	return dst
}
