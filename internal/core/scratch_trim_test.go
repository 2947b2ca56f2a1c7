package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/pq"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestResizeTrimsOversized: the resize helpers reallocate at need when the
// retained capacity is both above minRetainCap and more than trimFactor
// times the need, and retain capacity otherwise.
func TestResizeTrimsOversized(t *testing.T) {
	big := make([]float64, 4*minRetainCap)
	if got := resize(big, 10); cap(got) != 10 {
		t.Errorf("resize(cap %d, 10): cap = %d, want 10 (trimmed)", cap(big), cap(got))
	}
	small := make([]float64, minRetainCap)
	if got := resize(small, 10); cap(got) != minRetainCap {
		t.Errorf("resize(cap %d, 10): cap = %d, want %d (retained)", cap(small), cap(got), minRetainCap)
	}
	// Repeated same-size runs never trim: capacity equals need.
	exact := make([]float64, 4*minRetainCap)
	if got := resize(exact, 4*minRetainCap); cap(got) != 4*minRetainCap {
		t.Errorf("resize at need: cap = %d, want %d (no trim)", cap(got), 4*minRetainCap)
	}
}

// TestResizeListsTrimsInner: oversized outer list-of-lists are dropped
// wholesale, and retained inner lists above innerTrimCap are released.
func TestResizeListsTrimsInner(t *testing.T) {
	bigOuter := make([][]float64, 4*minRetainCap)
	if got := resizeLists(bigOuter, 8); cap(got) != 8 {
		t.Errorf("outer trim: cap = %d, want 8", cap(got))
	}
	s := make([][]float64, 4)
	s[0] = make([]float64, 2*innerTrimCap)
	s[1] = make([]float64, innerTrimCap/2)
	got := resizeLists(s, 4)
	if got[0] != nil {
		t.Errorf("inner list with cap %d retained; want dropped (> innerTrimCap %d)", cap(got[0]), innerTrimCap)
	}
	if cap(got[1]) != innerTrimCap/2 || len(got[1]) != 0 {
		t.Errorf("inner list cap/len = %d/%d, want %d/0 (retained, truncated)", cap(got[1]), len(got[1]), innerTrimCap/2)
	}
}

// TestResetQueueTrims: a bucket queue that grew past queueTrimCap is dropped
// to its zero value on reset; a modest one keeps its storage.
func TestResetQueueTrims(t *testing.T) {
	var q pq.Bucket[int32]
	for i := 0; i < queueTrimCap+1; i++ {
		q.Push(int32(i), float64(i))
	}
	resetQueue(&q)
	if q.Len() != 0 || q.Cap() != 0 {
		t.Errorf("after trim reset: len/cap = %d/%d, want 0/0", q.Len(), q.Cap())
	}
	for i := 0; i < 100; i++ {
		q.Push(int32(i), float64(i))
	}
	resetQueue(&q)
	if q.Len() != 0 || q.Cap() == 0 {
		t.Errorf("after plain reset: len/cap = %d/%d, want 0 and retained capacity", q.Len(), q.Cap())
	}
}

// TestScratchTrimsAfterLargeQuery: a pooled Scratch that served a large
// client population releases the oversized per-client buffers on the next
// (small) run instead of pinning them forever — the retention-bound
// guarantee the trim policy exists for. Answers are unaffected.
func TestScratchTrimsAfterLargeQuery(t *testing.T) {
	tree, qs := scratchQueries(t)
	small := qs[0]
	big := &Query{Existing: small.Existing, Candidates: small.Candidates}
	for i := 0; i < 8*minRetainCap; i++ {
		c := small.Clients[i%len(small.Clients)]
		c.ID = int32(i)
		big.Clients = append(big.Clients, c)
	}

	sc := NewScratch()
	if _, err := Exec(context.Background(), tree, big, Options{Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	if cap(sc.ea.bestExist) < len(big.Clients) {
		t.Fatalf("big run: cap(bestExist) = %d, want >= %d", cap(sc.ea.bestExist), len(big.Clients))
	}

	got, err := Exec(context.Background(), tree, small, Options{Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Exec(context.Background(), tree, small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.MinMax != want.MinMax {
		t.Errorf("post-trim answer diverged: %+v != %+v", got.MinMax, want.MinMax)
	}
	m := len(small.Clients)
	for name, c := range map[string]int{
		"bestExist":    cap(sc.ea.bestExist),
		"minRetrieved": cap(sc.ea.minRetrieved),
		"active":       cap(sc.ea.active),
		"satisfied":    cap(sc.ea.satisfied),
		"candCount":    cap(sc.ea.candCount),
		"offsets":      cap(sc.ea.offsets),
		"activated":    cap(sc.ea.activated),
	} {
		if c != m {
			t.Errorf("small run after big: cap(%s) = %d, want %d (trimmed)", name, c, m)
		}
	}
}

// roomQuery draws a query over tree's venue with n clients at the centres
// of random rooms, 5 existing facilities and 10 candidates.
func roomQuery(tree *vip.Tree, n int, rng *rand.Rand) *Query {
	v := tree.Venue()
	rooms := v.Rooms()
	rng.Shuffle(len(rooms), func(i, j int) { rooms[i], rooms[j] = rooms[j], rooms[i] })
	q := &Query{Existing: rooms[:5], Candidates: rooms[5:15]}
	for i := 0; i < n; i++ {
		q.Clients = append(q.Clients, clientIn(v, rooms[rng.Intn(len(rooms))], int32(i)))
	}
	return q
}

// cachedExplorers returns the explorers sc's cache holds for this run.
func cachedExplorers(sc *Scratch) map[*vip.Explorer]bool {
	held := map[*vip.Explorer]bool{}
	for _, p := range sc.explorers.parts {
		held[sc.explorers.byPart[p]] = true
	}
	return held
}

// spareExplorers returns sc's spare explorers, failing the test if one is
// listed twice or a slot past the list still holds one.
func spareExplorers(t *testing.T, sc *Scratch) map[*vip.Explorer]bool {
	t.Helper()
	spares := map[*vip.Explorer]bool{}
	for i, e := range sc.explorers.spares[:cap(sc.explorers.spares)] {
		switch {
		case i >= len(sc.explorers.spares):
			if e != nil {
				t.Fatalf("spare slot %d past the list holds an explorer", i)
			}
		case spares[e]:
			t.Fatalf("spare %p listed twice", e)
		default:
			spares[e] = true
		}
	}
	return spares
}

// TestScratchSparesFollowLastRun pins the explorer-retention rule of a
// pooled Scratch: the spares a claim keeps are at most the explorers the
// last run used, and only if it ran on the tree being claimed. After a
// large CH query, a small CH query's claim keeps only the small run's
// explorers; a claim on a grid tree drops every CH explorer, and the grid
// run's claim keeps only grid explorers. Answers are unaffected.
func TestScratchSparesFollowLastRun(t *testing.T) {
	ch := vip.MustBuild(venues.Chadstone(), vip.DefaultOptions())
	grid, gridQs := scratchQueries(t)
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	sc := NewScratch()
	run := func(tree *vip.Tree, q *Query) {
		t.Helper()
		got, err := Exec(ctx, tree, q, Options{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Exec(ctx, tree, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.MinMax != want.MinMax {
			t.Fatalf("pooled answer %+v, fresh %+v", got.MinMax, want.MinMax)
		}
	}

	run(ch, roomQuery(ch, 300, rng))
	big := cachedExplorers(sc)
	smallQ := roomQuery(ch, 3, rng)
	run(ch, smallQ)
	small := cachedExplorers(sc)
	if len(small) >= len(big) {
		t.Fatalf("small CH query used %d explorers, large one %d; the test proves nothing", len(small), len(big))
	}
	sc.claim(ch)
	spares := spareExplorers(t, sc)
	if len(spares) != len(small) {
		t.Errorf("after a small CH run: %d spares, want the %d explorers it used", len(spares), len(small))
	}
	for e := range spares {
		if !small[e] {
			t.Errorf("spare %p was not used by the last run", e)
		}
	}

	// Switch trees straight after a CH run, while the cache still holds
	// its explorers.
	run(ch, smallQ)
	chHeld := cachedExplorers(sc)
	if len(chHeld) == 0 {
		t.Fatal("the CH run used no explorer; the test proves nothing")
	}
	sc.claim(grid)
	if n := len(spareExplorers(t, sc)); n != 0 {
		t.Errorf("claim on the grid tree kept %d CH spares", n)
	}
	run(grid, gridQs[0])
	used := cachedExplorers(sc)
	sc.claim(grid)
	spares = spareExplorers(t, sc)
	if len(spares) > len(used) {
		t.Errorf("after a grid run: %d spares, more than the %d explorers it used", len(spares), len(used))
	}
	for e := range spares {
		if chHeld[e] {
			t.Errorf("grid Scratch holds CH explorer %p", e)
		}
		if !used[e] {
			t.Errorf("spare %p was not used by the last run", e)
		}
	}
	for p, e := range sc.explorers.byPart {
		if e != nil {
			t.Errorf("claimed cache still maps partition %d", p)
		}
	}
}
