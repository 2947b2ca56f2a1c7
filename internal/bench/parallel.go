package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// ParallelQueries is the batch size of the parallel-speedup report: the
// query count each venue's sequential-vs-parallel comparison runs.
const ParallelQueries = 100

// Parallel measures the parallel execution layer, per venue: VIP-tree
// construction with Options.Workers=1 versus all workers, and a
// ParallelQueries-strong batch of efficient-approach IFLS queries run
// through batch.Run with 1 versus all workers. It prints one table row per
// venue (build and batch wall times, speedups, and the batch's aggregate
// counters) and returns no measurements — speedup here is parallel over
// sequential on identical work, not efficient over baseline.
//
// It is registered in Figures as "parallel" but deliberately left out of
// FigureOrder: it characterizes this implementation's scaling, not a
// figure of the paper. On a single-core machine the speedups hover around
// 1.0x; the ≥4-core reproduction instructions live in EXPERIMENTS.md.
func Parallel(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	nClients := maxInt(100, cfg.ClientDefault/10)
	writeHeader(w, fmt.Sprintf("Parallel layer — %d workers vs sequential (%d queries, |C|=%d per query)",
		workers, ParallelQueries, nClients))
	fmt.Fprintf(w, "%-6s %12s %12s %9s %12s %12s %9s %9s %10s\n",
		"venue", "build-seq", "build-par", "speedup", "batch-seq", "batch-par", "speedup", "queries", "pruned")

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

		opts.Workers = workers
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

		seq, err := batch.Run(context.Background(), tree, queries, batch.Options{Workers: 1})
		if err != nil {
			return out, err
		}
		par, err := batch.Run(context.Background(), tree, queries, batch.Options{Workers: workers})
		if err != nil {
			return out, err
		}
		if seq.Counters.Errors > 0 || par.Counters.Errors > 0 {
			return out, fmt.Errorf("bench: %s parallel batch had %d/%d errors",
				name, seq.Counters.Errors, par.Counters.Errors)
		}

		fmt.Fprintf(w, "%-6s %12s %12s %8.2fx %12s %12s %8.2fx %9d %10d\n",
			name,
			buildSeq.Round(time.Millisecond), buildPar.Round(time.Millisecond),
			ratio(buildSeq, buildPar),
			seq.Counters.Wall.Round(time.Millisecond), par.Counters.Wall.Round(time.Millisecond),
			ratio(seq.Counters.Wall, par.Counters.Wall),
			par.Counters.Queries, par.Counters.PrunedClients)
	}
	return out, nil
}

func ratio(seq, par time.Duration) float64 {
	if par <= 0 {
		return 0
	}
	return float64(seq) / float64(par)
}
