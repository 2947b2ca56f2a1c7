package pq

// quad is a 4-ary min-heap with Bucket's ordering contract: ascending
// priority, FIFO among equal priorities. It is Bucket's fallback for pushes
// below the last popped priority. A 4-ary layout halves the tree height of a
// binary heap and keeps sift-down children on one cache line. The zero value
// is an empty, ready-to-use queue. Not safe for concurrent use.
type quad[T any] struct {
	items []entry[T]
	seq   uint64
}

// Len returns the number of queued items.
func (q *quad[T]) Len() int { return len(q.items) }

// Empty reports whether the queue has no items.
func (q *quad[T]) Empty() bool { return len(q.items) == 0 }

// Cap returns the capacity of the underlying storage (for trim policies).
func (q *quad[T]) Cap() int { return cap(q.items) }

// Push inserts value with the given priority.
func (q *quad[T]) Push(value T, priority float64) {
	q.seq++
	q.items = append(q.items, entry[T]{value: value, priority: priority, seq: q.seq})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the item with the smallest priority. It panics on
// an empty queue; callers check Len or Empty first.
func (q *quad[T]) Pop() (T, float64) {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.value, top.priority
}

// Peek returns the smallest-priority item without removing it.
func (q *quad[T]) Peek() (T, float64) {
	top := q.items[0]
	return top.value, top.priority
}

// Reset empties the queue, retaining the underlying storage.
func (q *quad[T]) Reset() {
	q.items = q.items[:0]
	q.seq = 0
}

func (q *quad[T]) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

func (q *quad[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *quad[T]) down(i int) {
	n := len(q.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		smallest := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.less(c, smallest) {
				smallest = c
			}
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
