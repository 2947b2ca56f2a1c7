package pq

import (
	"math"
	"math/rand"
	"testing"
)

// minQueue is the shared contract of Bucket, its quad fallback and the
// naive reference queue, so the property tests can drive all three through
// one harness.
type minQueue interface {
	Push(v int, priority float64)
	Pop() (int, float64)
	Peek() (int, float64)
	Len() int
	Empty() bool
	Reset()
}

var (
	_ minQueue = (*naiveQueue)(nil)
	_ minQueue = (*quad[int])(nil)
	_ minQueue = (*Bucket[int])(nil)
)

// naiveQueue is the test oracle: an unordered slice scanned linearly for
// the minimum (priority, insertion order). It shares no structure with
// Bucket or quad, so agreement with it is independent evidence.
type naiveQueue struct {
	items []naiveItem
	seq   int
}

type naiveItem struct {
	v, seq int
	p      float64
}

func (q *naiveQueue) Push(v int, p float64) {
	q.seq++
	q.items = append(q.items, naiveItem{v: v, seq: q.seq, p: p})
}

func (q *naiveQueue) min() int {
	m := 0
	for i, it := range q.items {
		if b := q.items[m]; it.p < b.p || (it.p == b.p && it.seq < b.seq) {
			m = i
		}
	}
	return m
}

func (q *naiveQueue) Peek() (int, float64) { it := q.items[q.min()]; return it.v, it.p }

func (q *naiveQueue) Pop() (int, float64) {
	i := q.min()
	it := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	return it.v, it.p
}

func (q *naiveQueue) Len() int    { return len(q.items) }
func (q *naiveQueue) Empty() bool { return len(q.items) == 0 }
func (q *naiveQueue) Reset()      { q.items = q.items[:0] }

// runLockstep drives ref and got through an identical randomized push/pop
// schedule and asserts byte-identical pop sequences. monotone restricts
// pushed priorities to ≥ the last popped priority, matching the solver
// stepping loop; otherwise priorities are arbitrary (fallback path).
func runLockstep(t *testing.T, name string, mk func() minQueue, seed int64, monotone bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := &naiveQueue{}
	got := mk()
	floor := math.Inf(-1)
	next := 0
	for step := 0; step < 5000; step++ {
		doPush := ref.Empty() || rng.Intn(3) != 0
		if doPush {
			var p float64
			switch rng.Intn(10) {
			case 0: // deliberate ties, including ties with the current floor
				if monotone && !math.IsInf(floor, -1) {
					p = floor
				} else {
					p = float64(rng.Intn(4))
				}
			case 1: // negative and fractional keys
				p = (rng.Float64() - 0.5) * 1e6
			default:
				p = rng.Float64() * 1000
			}
			if monotone && p < floor {
				p = floor + rng.Float64()
			}
			ref.Push(next, p)
			got.Push(next, p)
			next++
			continue
		}
		wv, wp := ref.Peek()
		gv, gp := got.Peek()
		if wv != gv || wp != gp {
			t.Fatalf("%s seed %d step %d: Peek = (%d, %v), want (%d, %v)", name, seed, step, gv, gp, wv, wp)
		}
		wv, wp = ref.Pop()
		gv, gp = got.Pop()
		if wv != gv || wp != gp {
			t.Fatalf("%s seed %d step %d: Pop = (%d, %v), want (%d, %v)", name, seed, step, gv, gp, wv, wp)
		}
		floor = wp
		if ref.Len() != got.Len() {
			t.Fatalf("%s seed %d step %d: Len = %d, want %d", name, seed, step, got.Len(), ref.Len())
		}
	}
	for !ref.Empty() {
		wv, wp := ref.Pop()
		gv, gp := got.Pop()
		if wv != gv || wp != gp {
			t.Fatalf("%s seed %d drain: Pop = (%d, %v), want (%d, %v)", name, seed, gv, gp, wv, wp)
		}
	}
	if !got.Empty() {
		t.Fatalf("%s seed %d: %d items left after drain", name, seed, got.Len())
	}
}

// The lockstep tests below check Bucket and its quad fallback against
// naiveQueue, the reference queue, on monotone and arbitrary schedules.

func TestBucketMatchesQueueMonotone(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runLockstep(t, "Bucket/monotone", func() minQueue { return NewBucket[int](8) }, seed, true)
	}
}

func TestBucketMatchesQueueNonMonotone(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runLockstep(t, "Bucket/nonmonotone", func() minQueue { return &Bucket[int]{} }, seed, false)
	}
}

func TestQuadMatchesQueueMonotone(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runLockstep(t, "quad/monotone", func() minQueue { return &quad[int]{} }, seed, true)
	}
}

func TestQuadMatchesQueueNonMonotone(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runLockstep(t, "quad/nonmonotone", func() minQueue { return &quad[int]{} }, seed, false)
	}
}

// TestEqualPriorityFIFO pins the tie-break the solvers rely on: among equal
// priorities, pops come back in insertion order, so pushing candidates in
// ascending ID order yields the lowest ID first.
func TestEqualPriorityFIFO(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() minQueue
	}{
		{"Quad", func() minQueue { return &quad[int]{} }},
		{"Bucket", func() minQueue { return NewBucket[int](0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.mk()
			// Interleave two priority classes; each class must drain FIFO.
			for id := 0; id < 8; id++ {
				q.Push(id, 7)
				q.Push(100+id, 3)
			}
			for id := 0; id < 8; id++ {
				if v, p := q.Pop(); v != 100+id || p != 3 {
					t.Fatalf("pop = (%d, %v), want (%d, 3)", v, p, 100+id)
				}
			}
			for id := 0; id < 8; id++ {
				if v, p := q.Pop(); v != id || p != 7 {
					t.Fatalf("pop = (%d, %v), want (%d, 7)", v, p, id)
				}
			}
		})
	}
}

// TestStaleEntrySkip exercises the decrease-key-by-reinsertion discipline the
// Dijkstra and stepping loops use: obsolete entries stay queued and are
// skipped on pop via a freshness check. Bucket and quad must surface the
// reference queue's accepted (fresh) sequence.
func TestStaleEntrySkip(t *testing.T) {
	type op struct {
		v int
		p float64
	}
	rng := rand.New(rand.NewSource(7))
	var ops []op
	best := map[int]float64{}
	for i := 0; i < 400; i++ {
		v := rng.Intn(40)
		p := rng.Float64() * 100
		if old, ok := best[v]; !ok || p < old {
			best[v] = p
		}
		ops = append(ops, op{v, p})
	}
	drain := func(q minQueue) []op {
		dist := map[int]float64{}
		for _, o := range ops {
			if old, ok := dist[o.v]; !ok || o.p < old {
				dist[o.v] = o.p
				q.Push(o.v, o.p)
			}
		}
		var out []op
		done := map[int]bool{}
		for !q.Empty() {
			v, p := q.Pop()
			if done[v] || p > dist[v] {
				continue // stale entry
			}
			done[v] = true
			out = append(out, op{v, p})
		}
		return out
	}
	want := drain(&naiveQueue{})
	for _, tc := range []struct {
		name string
		q    minQueue
	}{
		{"Quad", &quad[int]{}},
		{"Bucket", NewBucket[int](0)},
	} {
		got := drain(tc.q)
		if len(got) != len(want) {
			t.Fatalf("%s: %d accepted pops, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: accepted pop %d = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestBucketReset checks that Reset restores a reusable empty queue whose
// subsequent behavior is unaffected by prior contents — the property Scratch
// pooling depends on.
func TestBucketReset(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    minQueue
	}{
		{"Quad", &quad[int]{}},
		{"Bucket", NewBucket[int](0)},
	} {
		q := tc.q
		for i := 0; i < 100; i++ {
			q.Push(i, float64(100-i))
		}
		for i := 0; i < 40; i++ {
			q.Pop()
		}
		q.Reset()
		if !q.Empty() || q.Len() != 0 {
			t.Fatalf("%s: queue not empty after Reset", tc.name)
		}
		q.Push(1, 2.5)
		q.Push(2, 0.5) // below the pre-Reset pop floor: must still pop first
		if v, p := q.Pop(); v != 2 || p != 0.5 {
			t.Fatalf("%s: pop after Reset = (%d, %v), want (2, 0.5)", tc.name, v, p)
		}
		if v, p := q.Pop(); v != 1 || p != 2.5 {
			t.Fatalf("%s: pop after Reset = (%d, %v), want (1, 2.5)", tc.name, v, p)
		}
		if !q.Empty() {
			t.Fatalf("%s: queue not drained", tc.name)
		}
	}
}

// TestBucketNegativeAndZeroKeys covers the ordKey edge cases: negative
// priorities, +0/-0 collapsing onto one key, and ±Inf ordering.
func TestBucketNegativeAndZeroKeys(t *testing.T) {
	q := NewBucket[int](0)
	negZero := math.Copysign(0, -1)
	q.Push(1, 0)
	q.Push(2, negZero) // equal priority to +0: FIFO after 1
	q.Push(3, -5)
	q.Push(4, math.Inf(1))
	q.Push(5, math.Inf(-1))
	wantOrder := []int{5, 3, 1, 2, 4}
	for _, w := range wantOrder {
		if v, _ := q.Pop(); v != w {
			t.Fatalf("pop = %d, want %d", v, w)
		}
	}
}

func BenchmarkQuadMonotone(b *testing.B)   { benchMonotone(b, &quad[int]{}) }
func BenchmarkBucketMonotone(b *testing.B) { benchMonotone(b, NewBucket[int](1024)) }

// benchMonotone simulates the stepping-loop access pattern: pops strictly
// drive the frontier forward, each pop pushing a couple of farther entries.
func benchMonotone(b *testing.B, q minQueue) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Reset()
		for j := 0; j < 64; j++ {
			q.Push(j, rng.Float64())
		}
		for !q.Empty() {
			_, p := q.Pop()
			if q.Len() < 512 && rng.Intn(4) != 0 {
				q.Push(q.Len(), p+rng.Float64())
				q.Push(q.Len(), p+rng.Float64()*2)
			}
		}
	}
}
