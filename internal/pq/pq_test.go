package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := NewBucket[int](0)
	if q.Len() != 0 || !q.Empty() {
		t.Fatalf("new queue not empty: len=%d", q.Len())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var q Bucket[string]
	q.Push("a", 2)
	q.Push("b", 1)
	if v, p := q.Pop(); v != "b" || p != 1 {
		t.Fatalf("Pop = (%q, %v), want (b, 1)", v, p)
	}
}

func TestPopOrder(t *testing.T) {
	q := NewBucket[int](8)
	prios := []float64{5, 1, 4, 2, 8, 0, 3, 9, 7, 6}
	for i, p := range prios {
		q.Push(i, p)
	}
	var got []float64
	for !q.Empty() {
		_, p := q.Pop()
		got = append(got, p)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("pop order not sorted: %v", got)
	}
	if len(got) != len(prios) {
		t.Errorf("popped %d items, want %d", len(got), len(prios))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	q := NewBucket[int](4)
	for i := 0; i < 10; i++ {
		q.Push(i, 1.0)
	}
	for i := 0; i < 10; i++ {
		v, _ := q.Pop()
		if v != i {
			t.Fatalf("equal-priority pop %d returned %d, want FIFO order", i, v)
		}
	}
}

func TestPeek(t *testing.T) {
	q := NewBucket[string](2)
	q.Push("x", 3)
	q.Push("y", 1)
	if v, p := q.Peek(); v != "y" || p != 1 {
		t.Fatalf("Peek = (%q, %v)", v, p)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek must not remove; len = %d", q.Len())
	}
}

func TestReset(t *testing.T) {
	q := NewBucket[int](4)
	q.Push(1, 1)
	q.Push(2, 2)
	q.Reset()
	if !q.Empty() {
		t.Fatal("Reset did not empty queue")
	}
	q.Push(3, 3)
	if v, _ := q.Pop(); v != 3 {
		t.Fatal("queue unusable after Reset")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic popping empty queue")
		}
	}()
	NewBucket[int](0).Pop()
}

func TestHeapPropertyRandom(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewBucket[int](int(n))
		want := make([]float64, 0, n)
		for i := 0; i < int(n); i++ {
			p := rng.Float64() * 1000
			q.Push(i, p)
			want = append(want, p)
		}
		sort.Float64s(want)
		for i := range want {
			_, p := q.Pop()
			if p != want[i] {
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewBucket[float64](16)
	lastPopped := -1.0
	inserted := 0
	popped := 0
	for step := 0; step < 5000; step++ {
		if q.Empty() || rng.Intn(3) < 2 {
			// Monotone workload: priorities only grow, as in best-first search.
			p := lastPopped + rng.Float64()*10
			q.Push(p, p)
			inserted++
		} else {
			v, p := q.Pop()
			popped++
			if v != p {
				t.Fatalf("value/priority mismatch: %v vs %v", v, p)
			}
			if p < lastPopped {
				t.Fatalf("non-monotone pop: %v after %v", p, lastPopped)
			}
			lastPopped = p
		}
	}
	if inserted-popped != q.Len() {
		t.Fatalf("size accounting: inserted=%d popped=%d len=%d", inserted, popped, q.Len())
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prios := make([]float64, 1024)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewBucket[int](64)
		for j, p := range prios {
			q.Push(j, p)
		}
		for !q.Empty() {
			q.Pop()
		}
	}
}
