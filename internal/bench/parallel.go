package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// ParallelQueries is the query count of the parallel-speedup report: the
// queries each venue's sequential-vs-parallel comparison answers.
const ParallelQueries = 100

// Parallel measures the parallel execution layer, per venue, at the width
// runtime.GOMAXPROCS(0): VIP-tree construction with Options.Workers=1
// versus the default fan-out, and ParallelQueries efficient-approach IFLS
// queries answered by a sequential loop of batch.Execute versus
// GOMAXPROCS goroutines each calling batch.Execute — the served path,
// where every request's goroutine calls Execute. It prints one table row
// per venue (build and query wall times, speedups, and the answered and
// pruned counts summed over the results) and returns no measurements —
// speedup here is parallel over sequential on identical work, not
// efficient over baseline.
//
// It is registered in Figures as "parallel" but deliberately left out of
// FigureOrder: it characterizes this implementation's scaling, not a
// figure of the paper. With GOMAXPROCS=1 the speedups hover around 1.0x;
// the ≥4-core reproduction instructions live in EXPERIMENTS.md.
func Parallel(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	width := runtime.GOMAXPROCS(0)
	nClients := maxInt(100, cfg.ClientDefault/10)
	writeHeader(w, fmt.Sprintf("Parallel layer — GOMAXPROCS=%d vs sequential (%d queries, |C|=%d per query)",
		width, ParallelQueries, nClients))
	fmt.Fprintf(w, "%-6s %12s %12s %9s %12s %12s %9s %9s %10s\n",
		"venue", "build-seq", "build-par", "speedup", "query-seq", "query-par", "speedup", "queries", "pruned")

	var out []Measurement
	for _, name := range cfg.Venues {
		v, err := r.Venue(name)
		if err != nil {
			return out, err
		}
		opts := r.Opts
		if opts == (vip.Options{}) {
			opts = vip.DefaultOptions()
		}

		opts.Workers = 1
		start := time.Now()
		if _, err := vip.Build(v, opts); err != nil {
			return out, err
		}
		buildSeq := time.Since(start)

		opts.Workers = 0
		start = time.Now()
		tree, err := vip.Build(v, opts)
		if err != nil {
			return out, err
		}
		buildPar := time.Since(start)

		g, err := r.Generator(name)
		if err != nil {
			return out, err
		}
		nExist, nCand := 10, 20
		if p, ok := Table2[name]; ok {
			nExist, nCand = p.FeDefault, p.FnDefault
		}
		queries := make([]batch.Query, ParallelQueries)
		for i := range queries {
			rng := rand.New(rand.NewSource(cfg.Seed*100_000 + int64(i)))
			q, err := g.Query(nExist, nCand, nClients, workload.Uniform, cfg.SigmaDefault, rng)
			if err != nil {
				return out, err
			}
			queries[i] = batch.Query{Query: q} // the zero objective is MinMax
		}

		seq, seqWall := executeAll(tree, queries, 1)
		par, parWall := executeAll(tree, queries, width)
		pruned := 0
		for i, q := range queries {
			if seq[i].Err != nil || par[i].Err != nil {
				return out, fmt.Errorf("bench: %s parallel query %d: %v / %v", name, i, seq[i].Err, par[i].Err)
			}
			pruned += par[i].Outcome(q.Objective).Stats.PrunedClients
		}

		fmt.Fprintf(w, "%-6s %12s %12s %8.2fx %12s %12s %8.2fx %9d %10d\n",
			name,
			buildSeq.Round(time.Millisecond), buildPar.Round(time.Millisecond),
			ratio(buildSeq, buildPar),
			seqWall.Round(time.Millisecond), parWall.Round(time.Millisecond),
			ratio(seqWall, parWall),
			len(par), pruned)
	}
	return out, nil
}

// executeAll answers the queries from width goroutines, each calling
// batch.Execute on the indexes it claims from a shared counter (width 1 is
// a sequential loop), and returns the results, aligned with queries, and
// the wall time.
func executeAll(tree *vip.Tree, queries []batch.Query, width int) ([]batch.Result, time.Duration) {
	results := make([]batch.Result, len(queries))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
				results[i] = batch.Execute(context.Background(), tree, queries[i], nil)
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

func ratio(seq, par time.Duration) float64 {
	if par <= 0 {
		return 0
	}
	return float64(seq) / float64(par)
}
