package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/vip"
)

// coldStartTrials is how many open-and-query cycles ColdStart times per
// reader; the fastest is reported, the usual way to suppress scheduler and
// page-cache noise in a latency measurement.
const coldStartTrials = 5

// ColdStart measures restart latency of a saved index: the wall time from
// "process has a file path" to "first query answered", for the eager
// reader (vip.Load reads the whole file, verifies every page, and
// materializes every matrix before anything can run) versus the lazy one
// (vip.OpenPagedFile reads only the tree structure eagerly; matrix pages
// fault in on demand, so the first query pays for exactly the pages it
// touches). Both read the same file. The readiness probe is one
// partition-to-partition distance between the venue's first two partitions
// — a minimal real answer, so the column measures restart cost rather than
// solver cost; the far-pair columns answer the venue's first-to-last
// partition distance, whose cross-tree propagation work shows what the
// lazy reader pays per query once real query CPU is in the denominator.
// The ratio column is eager-ready / paged-ready.
func ColdStart(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	dir, err := os.MkdirTemp("", "ifls-coldstart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	writeHeader(w, "Cold start — restart-to-first-answer, eager vs paged index reads")
	fmt.Fprintf(w, "%-6s %12s %14s %14s %9s %12s %12s\n",
		"venue", "bytes", "eager-ready", "paged-ready", "ratio", "eager-farq", "paged-farq")
	for _, name := range cfg.Venues {
		tree, err := r.Tree(name)
		if err != nil {
			return nil, err
		}
		v, err := r.Venue(name)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, name+".vip")
		if err := saveTo(path, func(f io.Writer) error {
			return tree.SavePaged(f, vip.PagedSaveOptions{})
		}); err != nil {
			return nil, err
		}

		probeA, probeB := indoor.PartitionID(0), indoor.PartitionID(1)
		farA, farB := indoor.PartitionID(0), indoor.PartitionID(v.NumPartitions()-1)
		wantNear := tree.DistPartitionToPartition(probeA, probeB)
		wantFar := tree.DistPartitionToPartition(farA, farB)

		var eagerFar, pagedFar time.Duration
		eagerReady, err := bestOf(coldStartTrials, func() (time.Duration, error) {
			start := time.Now()
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			t, err := vip.Load(f, v)
			f.Close()
			if err != nil {
				return 0, err
			}
			if got := t.DistPartitionToPartition(probeA, probeB); got != wantNear {
				return 0, fmt.Errorf("coldstart %s: eager answer %v, want %v", name, got, wantNear)
			}
			ready := time.Since(start)
			farStart := time.Now()
			if got := t.DistPartitionToPartition(farA, farB); got != wantFar {
				return 0, fmt.Errorf("coldstart %s: eager far answer %v, want %v", name, got, wantFar)
			}
			eagerFar = time.Since(farStart)
			return ready, nil
		})
		if err != nil {
			return nil, err
		}
		pagedReady, err := bestOf(coldStartTrials, func() (time.Duration, error) {
			start := time.Now()
			t, err := vip.OpenPagedFile(path, v, vip.PagedOptions{})
			if err != nil {
				return 0, err
			}
			got := t.DistPartitionToPartition(probeA, probeB)
			ready := time.Since(start)
			farStart := time.Now()
			gotFar := t.DistPartitionToPartition(farA, farB)
			pagedFar = time.Since(farStart)
			if err := t.Close(); err != nil {
				return 0, err
			}
			if got != wantNear {
				return 0, fmt.Errorf("coldstart %s: paged answer %v, want %v", name, got, wantNear)
			}
			if gotFar != wantFar {
				return 0, fmt.Errorf("coldstart %s: paged far answer %v, want %v", name, gotFar, wantFar)
			}
			return ready, nil
		})
		if err != nil {
			return nil, err
		}

		ratio := 0.0
		if pagedReady > 0 {
			ratio = float64(eagerReady) / float64(pagedReady)
		}
		fmt.Fprintf(w, "%-6s %12d %14s %14s %8.1fx %12s %12s\n",
			name, fileSize(path), eagerReady.Round(time.Microsecond), pagedReady.Round(time.Microsecond), ratio,
			eagerFar.Round(time.Microsecond), pagedFar.Round(time.Microsecond))
	}
	return nil, nil
}

// saveTo writes one index file through save, fsync-free (benchmark
// artifacts, not production saves).
func saveTo(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

// bestOf runs fn n times and returns the fastest duration.
func bestOf(n int, fn func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}
