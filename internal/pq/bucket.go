// Package pq implements the priority queue behind every best-first search in
// this repository: Dijkstra over the door graph (masked graphs included),
// the VIP-tree top-down nearest-neighbor and range searches, and the
// bottom-up traversal and stepping loops of the IFLS solvers. Bucket is its one queue type; entries live in flat slices of
// concrete type, so a push allocates nothing once capacity is warm.
package pq

import (
	"math"
	"math/bits"
	"slices"
)

// Bucket is a monotone bucket queue (a radix heap) ordered by ascending
// priority, FIFO among equal priorities. It is built for best-first loops whose pushes never fall below the last popped
// priority — Dijkstra over the door graph and the bottom-up IFLS stepping
// loop are both monotone in this sense — where it replaces O(log n) heap
// sift-downs with O(1) amortized bucket appends.
//
// Keys are float64 priorities mapped to uint64 so that unsigned integer
// order matches float order. Entries live in 65 buckets indexed by the
// position of the highest bit in which their key differs from the last
// popped key; popping the global minimum only ever redistributes one bucket
// into strictly lower buckets, so each entry moves O(64) times total.
//
// Pushes below the last popped priority do not break the queue: they divert
// to an embedded 4-ary heap whose keys are then strictly smaller than every
// bucketed key, so Pop drains the fallback first and the global
// (priority, insertion) order is preserved exactly. Monotone workloads never
// touch the fallback.
//
// The zero value is an empty, ready-to-use queue. Not safe for concurrent
// use; independent Buckets are safe from different goroutines.
type Bucket[T any] struct {
	last    uint64 // ordKey of the most recent bucket pop (high-water mark)
	occ     uint64 // bit i set ⇔ buckets[i+1] nonempty
	n       int    // total entries, fallback included
	seq     uint64 // global insertion counter; equal priorities pop FIFO
	b0head  int    // bucket 0 consumed prefix; live entries are buckets[0][b0head:]
	buckets [65][]entry[T]
	fb      quad[T] // entries pushed below last; keys strictly < all bucketed keys
}

// entry is one queued value with its priority and insertion sequence.
type entry[T any] struct {
	value    T
	priority float64
	seq      uint64 // insertion order; ties break FIFO for determinism
}

// NewBucket returns an empty monotone bucket queue with capacity hint n for
// the initial catch-all bucket.
func NewBucket[T any](n int) *Bucket[T] {
	b := &Bucket[T]{}
	b.buckets[64] = make([]entry[T], 0, n)
	return b
}

// ordKey maps a float64 to a uint64 whose unsigned order matches the float
// order for all non-NaN values. Negative zero is collapsed onto positive
// zero so that equal priorities share a key.
func ordKey(p float64) uint64 {
	if p == 0 {
		p = 0 // normalize -0.0
	}
	b := math.Float64bits(p)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// bucketIdx returns the bucket for key k relative to the current last key:
// 0 when equal, otherwise the position of the highest differing bit plus
// one (1..64).
func (q *Bucket[T]) bucketIdx(k uint64) int {
	return bits.Len64(k ^ q.last)
}

// Len returns the number of queued items.
func (q *Bucket[T]) Len() int { return q.n }

// Empty reports whether the queue has no items.
func (q *Bucket[T]) Empty() bool { return q.n == 0 }

// Cap returns the total capacity of the underlying storage (for trim
// policies).
func (q *Bucket[T]) Cap() int {
	c := q.fb.Cap()
	for i := range q.buckets {
		c += cap(q.buckets[i])
	}
	return c
}

// Push inserts value with the given priority.
func (q *Bucket[T]) Push(value T, priority float64) {
	k := ordKey(priority)
	q.n++
	if k < q.last {
		// Non-monotone push: divert to the fallback heap. Every fallback
		// key is strictly below every bucketed key (buckets hold ≥ last),
		// so Pop can drain the fallback first without consulting seq
		// across the two regions.
		q.fb.Push(value, priority)
		return
	}
	q.seq++
	i := q.bucketIdx(k)
	q.buckets[i] = append(q.buckets[i], entry[T]{value: value, priority: priority, seq: q.seq})
	if i > 0 {
		q.occ |= 1 << (i - 1)
	}
}

// settle ensures bucket 0 holds the minimum bucketed key: when it is empty,
// the lowest nonempty bucket is redistributed relative to its own minimum
// key, which lands at least one entry in bucket 0 and every other entry in a
// strictly lower bucket than before.
//
// Bucket 0 is kept in ascending seq order: the refill below sorts it once,
// and direct pushes append with the globally largest seq. Pop and Peek can
// then take the FIFO head in O(1) instead of scanning a tie batch — with
// thousands of equal-priority entries (e.g. the solvers' zero-distance
// preamble retrievals) a per-pop scan degrades the whole drain to
// quadratic.
func (q *Bucket[T]) settle() {
	for q.b0head == len(q.buckets[0]) {
		i := bits.TrailingZeros64(q.occ) + 1 // lowest nonempty bucket
		bk := q.buckets[i]
		minKey := ordKey(bk[0].priority)
		for _, e := range bk[1:] {
			if k := ordKey(e.priority); k < minKey {
				minKey = k
			}
		}
		q.last = minKey
		q.buckets[0] = q.buckets[0][:0] // drop the consumed prefix
		q.b0head = 0
		for _, e := range bk {
			j := q.bucketIdx(ordKey(e.priority))
			q.buckets[j] = append(q.buckets[j], e)
			if j > 0 {
				q.occ |= 1 << (j - 1)
			}
		}
		q.buckets[i] = bk[:0]
		q.occ &^= 1 << (i - 1)
		slices.SortFunc(q.buckets[0], func(a, b entry[T]) int {
			switch {
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
	}
}

// popBucket0 removes and returns the earliest-inserted entry of bucket 0
// (all bucket-0 entries share the minimum key and are seq-sorted, so the
// FIFO head sits at b0head).
func (q *Bucket[T]) popBucket0() entry[T] {
	e := q.buckets[0][q.b0head]
	q.b0head++
	if q.b0head == len(q.buckets[0]) {
		q.buckets[0] = q.buckets[0][:0]
		q.b0head = 0
	}
	return e
}

// Pop removes and returns the item with the smallest priority. It panics on
// an empty queue; callers check Len or Empty first.
func (q *Bucket[T]) Pop() (T, float64) {
	if q.n == 0 {
		panic("pq: Pop on empty Bucket")
	}
	q.n--
	if !q.fb.Empty() {
		return q.fb.Pop()
	}
	q.settle()
	e := q.popBucket0()
	return e.value, e.priority
}

// Peek returns the smallest-priority item without removing it. Peek may
// reorganize internal buckets but never changes the queue's contents.
func (q *Bucket[T]) Peek() (T, float64) {
	if q.n == 0 {
		panic("pq: Peek on empty Bucket")
	}
	if !q.fb.Empty() {
		return q.fb.Peek()
	}
	q.settle()
	e := &q.buckets[0][q.b0head]
	return e.value, e.priority
}

// Reset empties the queue, retaining the underlying storage.
func (q *Bucket[T]) Reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.occ = 0
	q.n = 0
	q.seq = 0
	q.last = 0
	q.b0head = 0
	q.fb.Reset()
}
