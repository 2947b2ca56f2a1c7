// Command iflsbench regenerates the paper's evaluation figures: it sweeps
// the Table 2 parameter grid, measures both solvers, and prints one text
// table per figure panel (time and memory columns cover Figures 5-8).
//
// Usage:
//
//	iflsbench -fig all                 # the full grid (hours at paper scale)
//	iflsbench -fig 7a -scale 10        # client counts divided by 10
//	iflsbench -fig 5 -queries 3 -venues MC,CPH
//	iflsbench -fig parallel            # sequential-vs-parallel speedups
//	iflsbench -fig 5 -metrics localhost:6060
//
// -metrics ADDR serves live run metrics while the sweep executes: expvar
// JSON (per-stage span counters, latency histogram, prune-rate and
// convergence gauges) at http://ADDR/debug/vars under the "ifls" key, and
// the standard pprof profiling endpoints at http://ADDR/debug/pprof/. A
// final snapshot is printed when the run ends.
//
// Parallel work takes its width from GOMAXPROCS: index construction for
// every figure, and the "parallel" report's parallel legs (tree
// construction and 100 queries, each timed sequentially and at that
// width). The paper figures' query timings stay single-threaded so they
// remain comparable with the paper.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/indoorspatial/ifls/internal/bench"
	"github.com/indoorspatial/ifls/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6, 7a, 7b, 7c, counters, parallel, or all")
	scale := flag.Int("scale", 1, "divide all client counts by this factor")
	queries := flag.Int("queries", bench.QueriesPerCell, "queries averaged per cell")
	venuesFlag := flag.String("venues", "", "comma-separated venue subset (default all)")
	out := flag.String("out", "", "also append output to this file")
	csvOut := flag.String("csv", "", "write raw measurements as CSV to this file")
	metricsAddr := flag.String("metrics", "", "serve expvar + pprof on this address (e.g. localhost:6060) while running")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iflsbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	cfg := bench.DefaultConfig().Scaled(*scale)
	if *venuesFlag != "" {
		cfg.Venues = strings.Split(*venuesFlag, ",")
	}
	r := bench.NewRunner()
	r.Queries = *queries
	if *metricsAddr != "" {
		r.Metrics = obs.NewMetrics()
		srv := &http.Server{Addr: *metricsAddr, Handler: obs.NewMux(r.Metrics)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "iflsbench: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "iflsbench: metrics at http://%s/debug/vars, profiles at http://%s/debug/pprof/\n",
			*metricsAddr, *metricsAddr)
	}

	figs := bench.FigureOrder
	if *fig != "all" {
		if _, ok := bench.Figures[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "iflsbench: unknown figure %q (want 5, 6, 7a, 7b, 7c, counters, or all)\n", *fig)
			os.Exit(1)
		}
		figs = []string{*fig}
	}

	fmt.Fprintf(w, "iflsbench: figures %v, scale 1/%d, %d queries per cell, venues %v\n",
		figs, *scale, *queries, cfg.Venues)
	start := time.Now()
	var all []bench.Measurement
	for _, id := range figs {
		figStart := time.Now()
		ms, err := bench.Figures[id](w, r, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iflsbench:", err)
			os.Exit(1)
		}
		all = append(all, ms...)
		fmt.Fprintf(w, "(figure %s done in %v)\n", id, time.Since(figStart).Round(time.Second))
	}
	if len(all) > 0 {
		fmt.Fprintf(w, "\n%s\n", bench.FormatSpeedups(all))
	}
	fmt.Fprintf(w, "total: %v\n", time.Since(start).Round(time.Second))
	if r.Metrics != nil {
		fmt.Fprintf(w, "metrics: %s\n", r.Metrics.ExpvarString())
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iflsbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := bench.WriteCSV(f, all); err != nil {
			fmt.Fprintln(os.Stderr, "iflsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "raw measurements: %s\n", *csvOut)
	}
}
