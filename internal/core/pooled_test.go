package core_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// mcQueries returns MC's tree and n distinct 1000-client MinMax queries
// (20 existing facilities, 50 candidates, uniform clients), drawn from
// seed 1: the shape of a daemon's request stream.
func mcQueries(tb testing.TB, n int) (*vip.Tree, []*core.Query) {
	tb.Helper()
	v := venues.MelbourneCentral()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := workload.NewGenerator(v)
	rng := rand.New(rand.NewSource(1))
	qs := make([]*core.Query, n)
	for i := range qs {
		q, err := g.Query(20, 50, 1000, workload.Uniform, 0, rng)
		if err != nil {
			tb.Fatal(err)
		}
		qs[i] = q
	}
	return tree, qs
}

// scratchSolveAllocBound bounds the allocations of one warm pooled cold
// solve of a distinct 1000-client MC query. Every explorer vector is
// derived afresh, but into storage the Scratch's explorers kept from the
// last run. What remains is the escaping result, the explorers of
// partitions the last run did not use, storage blocks that grow for a
// source needing more than the explorer's last one, and the few buffers a
// new query shape outgrows: 170 allocations per query on this stream,
// where building every explorer from nothing makes 12,083.
const scratchSolveAllocBound = 250

// TestScratchSolveAllocBound pins the allocations of pooled cold solves: a
// Scratch warmed on distinct MC queries answers further distinct ones in
// at most scratchSolveAllocBound allocations each.
func TestScratchSolveAllocBound(t *testing.T) {
	const warm, measured = 16, 16
	tree, qs := mcQueries(t, warm+measured+1)
	sc := core.NewScratch()
	ctx := context.Background()
	solve := func(q *core.Query) {
		if _, err := core.Exec(ctx, tree, q, core.Options{Scratch: sc}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range qs[:warm] {
		solve(q)
	}
	next := warm
	// AllocsPerRun makes one unmeasured call, then measured ones: every
	// call answers a query the Scratch has not seen.
	avg := testing.AllocsPerRun(measured, func() {
		solve(qs[next])
		next++
	})
	if avg > scratchSolveAllocBound {
		t.Fatalf("pooled cold solve allocates %.0f objects/query, want <= %d", avg, scratchSolveAllocBound)
	}
}

// BenchmarkSolveScratchMC answers distinct 1000-client MC queries on one
// Scratch, cycling through 64 of them after one untimed pass: unlike
// BenchmarkSolveScratch, every run roots its explorers at new sources, so
// it shows what pooling saves on a cold solve.
func BenchmarkSolveScratchMC(b *testing.B) {
	tree, qs := mcQueries(b, 64)
	sc := core.NewScratch()
	ctx := context.Background()
	solve := func(q *core.Query) {
		if _, err := core.Exec(ctx, tree, q, core.Options{Scratch: sc}); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range qs {
		solve(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(qs[i%len(qs)])
	}
}
