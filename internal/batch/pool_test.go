package batch

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// freshResult answers one batch query with freshly allocated, unpooled
// solver state — the reference the pooled path must match exactly.
func freshResult(t *testing.T, tree *vip.Tree, q Query) Result {
	t.Helper()
	var r Result
	r.ExecResult, r.Err = core.Exec(context.Background(), tree, q.Query, core.Options{Objective: q.Objective, K: q.K})
	return r
}

// sessionRun answers q under obj through a Session's warm caches.
func sessionRun(s *core.Session, q *core.Query, obj core.Objective) core.ExecResult {
	r, _ := s.Exec(context.Background(), q, core.Options{Objective: obj})
	return r
}

// TestPooledBatchMatchesFresh: the pool-leased Scratches are invisible in
// the output — every pooled result of concurrent Execute calls (Stats
// included) is byte-identical to a fresh unpooled run of the same query.
func TestPooledBatchMatchesFresh(t *testing.T) {
	tree, queries := fixture(t, 40)
	results := executeAll(context.Background(), tree, queries, nil)
	for i, q := range queries {
		want := freshResult(t, tree, q)
		got := results[i]
		if got.Err != nil || want.Err != nil {
			t.Fatalf("query %d: unexpected errors pooled=%v fresh=%v", i, got.Err, want.Err)
		}
		if !bytes.Equal(payloadBytes(t, got), payloadBytes(t, want)) {
			t.Fatalf("query %d (%s): pooled payload differs from fresh\npooled: %+v\nfresh:  %+v",
				i, q.Objective, got, want)
		}
	}
}

// TestHammerSessionAndBatch runs one core.Session (private Scratch plus
// persistent explorer cache) on its own goroutine while pooled Execute
// calls run concurrently on the same tree, across all objectives. Under -race this
// proves the memory-reuse layers stay goroutine-local; the assertions prove
// the answers still match fresh runs.
func TestHammerSessionAndBatch(t *testing.T) {
	tree, queries := fixture(t, 25)

	// Fresh reference answers, computed before any pooling runs.
	wantBatch := make([]Result, len(queries))
	for i, q := range queries {
		wantBatch[i] = freshResult(t, tree, q)
	}

	var wg sync.WaitGroup
	// eqObj treats NaN (the "no improving candidate" objective) as equal.
	eqObj := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

	wg.Add(1)
	go func() {
		defer wg.Done()
		s := core.NewSession(tree)
		for round := 0; round < 6; round++ {
			for i, q := range queries {
				// The session answers MinMax, MinDist, and MaxSum over the
				// same query bodies the batch is chewing on concurrently.
				got := sessionRun(s, q.Query, core.ObjMinMax).MinMax
				want := freshResult(t, tree, Query{Query: q.Query}).MinMax
				if got.Found != want.Found || got.Answer != want.Answer || !eqObj(got.Objective, want.Objective) {
					t.Errorf("session round %d query %d: %+v != fresh %+v", round, i, got, want)
					return
				}
				gotExt := sessionRun(s, q.Query, core.ObjMinDist).Ext
				wantExt := freshResult(t, tree, Query{Objective: core.ObjMinDist, Query: q.Query}).Ext
				if gotExt.Answer != wantExt.Answer || !eqObj(gotExt.Objective, wantExt.Objective) {
					t.Errorf("session round %d query %d mindist: %+v != fresh %+v", round, i, gotExt, wantExt)
					return
				}
				gotExt = sessionRun(s, q.Query, core.ObjMaxSum).Ext
				wantExt = freshResult(t, tree, Query{Objective: core.ObjMaxSum, Query: q.Query}).Ext
				if gotExt.Answer != wantExt.Answer || !eqObj(gotExt.Objective, wantExt.Objective) {
					t.Errorf("session round %d query %d maxsum: %+v != fresh %+v", round, i, gotExt, wantExt)
					return
				}
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			results := executeAll(context.Background(), tree, queries, nil)
			for i := range queries {
				if !bytes.Equal(payloadBytes(t, results[i]), payloadBytes(t, wantBatch[i])) {
					t.Errorf("batch round %d query %d: pooled differs from fresh", round, i)
					return
				}
			}
		}
	}()

	wg.Wait()
}

// BenchmarkBatchPooled measures the steady-state throughput of concurrent
// Execute calls on the shared Scratch pool; ReportAllocs makes alloc
// regressions visible to the CI smoke step.
func BenchmarkBatchPooled(b *testing.B) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := workload.NewGenerator(v)
	objectives := []core.Objective{core.ObjMinMax, core.ObjMinDist, core.ObjMaxSum, core.ObjTopK}
	queries := make([]Query, 64)
	for i := range queries {
		rng := rand.New(rand.NewSource(int64(i) * 104729))
		q, err := g.Query(3, 5, 40, workload.Uniform, 0.5, rng)
		if err != nil {
			b.Fatalf("workload: %v", err)
		}
		queries[i] = Query{Objective: objectives[i%len(objectives)], K: 3, Query: q}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range executeAll(context.Background(), tree, queries, nil) {
			if r.Err != nil {
				b.Fatalf("query %d: %v", j, r.Err)
			}
		}
	}
}
