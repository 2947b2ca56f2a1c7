// Command iflsd serves Indoor Facility Location Selection queries over
// HTTP: a long-running multi-venue daemon with warm per-venue indexes,
// request coalescing (concurrent identical queries share one traversal),
// per-venue admission limits, live expvar/pprof observability, and
// graceful drain on SIGINT/SIGTERM. SERVING.md documents the HTTP API,
// the metrics catalog, and the operations runbook.
//
// Serving policy is fixed, not flagged: coalescing is always on, a flight
// every client has abandoned is reaped after 100ms, and 429/503 responses
// carry Retry-After: 1.
//
// Usage:
//
//	iflsd -addr :8080 -venues MC,CPH
//	iflsd -venuefile hq=building.json -lazy
//	iflsd -venues MC -indexfile MC=mc.vip          # skip the index build on boot
//	iflsd -venues MC -saveindex MC=mc.vip -build-only   # offline index build
//	iflsd -venues MC -query-timeout 250ms          # bound every query's wall time
//
// Index files are written atomically (temp file + rename), so a crash
// mid-save never leaves a half-written index. -saveindex emits the paged
// format: tree structure in a verified envelope, distance matrices in
// individually-checksummed pages that fault in through an LRU page cache
// (-page-cache) — so an -indexfile boot is query-ready in
// milliseconds regardless of matrix size. On open, the structure is
// verified (magic, version, checksum, deep validation) and a corrupt file
// is refused at startup; a corrupt matrix page is caught by its CRC at
// fault time and fails that query with a typed error instead of serving
// garbage. Files in the retired monolithic (version 2) format are refused
// at startup; rebuild them with -saveindex.
//
// A quick session against a running daemon:
//
//	curl localhost:8080/readyz
//	curl -X POST localhost:8080/v1/query -d '{"venue":"CPH","existing":[0],"candidates":[1,2]}'
//	curl localhost:8080/debug/vars | jq .ifls
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	ifls "github.com/indoorspatial/ifls"
	"github.com/indoorspatial/ifls/internal/chaos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iflsd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	venueList := flag.String("venues", "MC", "comma-separated sample venues to serve (MC, CH, CPH, MZB); empty for none")
	venueFiles := flag.String("venuefile", "", "comma-separated NAME=PATH venue JSON files to serve")
	indexFiles := flag.String("indexfile", "", "comma-separated NAME=PATH index files (written by -saveindex) to open instead of building")
	lazy := flag.Bool("lazy", false, "build venue indexes on first query instead of at startup")
	maxInFlight := flag.Int("max-inflight", 0, "per-venue admitted-query limit (0 = default 256, <0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max wait for in-flight queries on shutdown")
	queryTimeout := flag.Duration("query-timeout", 0, "server-side per-query deadline, 504 beyond it (0 = unbounded); must be below -drain-timeout")
	saveIndexFiles := flag.String("saveindex", "", "comma-separated NAME=PATH destinations for built indexes (paged format), written atomically")
	pageSize := flag.Int("page-size", 0, "page payload bytes for -saveindex files (0 = 64 KiB default; must be a positive multiple of 8)")
	pageCache := flag.Int64("page-cache", 0, "page-cache byte budget for paged -indexfile indexes (0 = 64 MiB default, negative = unlimited)")
	buildOnly := flag.Bool("build-only", false, "build and -saveindex the indexes, then exit without serving")
	chaosLatency := flag.Duration("chaos-latency", 0, "inject up to this much random latency into every query (fault-injection testing only)")
	flag.Parse()

	// A query deadline at or above the drain budget means a drain can never
	// outwait its slowest admissible query; refuse the combination up front.
	if *queryTimeout > 0 && *queryTimeout >= *drainTimeout {
		return fmt.Errorf("-query-timeout %v must be below -drain-timeout %v (a drain must be able to outwait its slowest admissible query)",
			*queryTimeout, *drainTimeout)
	}
	saves, err := parsePairs(*saveIndexFiles)
	if err != nil {
		return err
	}
	if *buildOnly && len(saves) == 0 {
		return fmt.Errorf("-build-only requires -saveindex destinations")
	}
	if len(saves) > 0 && *lazy {
		return fmt.Errorf("-saveindex requires eager builds; drop -lazy")
	}

	var hooks ifls.ServerHooks
	if *chaosLatency > 0 {
		inj := chaos.New(chaos.Config{Seed: 1, LatencyProb: 1, MaxLatency: *chaosLatency})
		hooks.BeforeExecute = inj.BeforeExecute
		log.Printf("CHAOS: injecting up to %v latency into every query", *chaosLatency)
	}

	m := ifls.NewMetrics()
	srv := ifls.NewServer(ifls.ServerOptions{
		MaxInFlight:  *maxInFlight,
		Metrics:      m,
		QueryTimeout: *queryTimeout,
		Hooks:        hooks,
	})

	indexes, err := parsePairs(*indexFiles)
	if err != nil {
		return err
	}

	var opened []*ifls.Index // paged indexes to release after the drain
	register := func(name string, v *ifls.Venue) error {
		var ix *ifls.Index
		if path, ok := indexes[name]; ok {
			start := time.Now()
			var err error
			ix, err = ifls.OpenIndexFile(path, v, ifls.PagedIndexOptions{
				CacheBytes: *pageCache,
				Metrics:    m,
			})
			if err != nil {
				return fmt.Errorf("index %q: %w", path, err)
			}
			opened = append(opened, ix)
			log.Printf("venue %q: index opened from %s in %v", name, path, time.Since(start).Round(time.Microsecond))
		} else {
			if *lazy {
				log.Printf("venue %q: index deferred to first query", name)
				return srv.AddVenueLazy(name, v, ifls.IndexOptions{})
			}
			start := time.Now()
			var err error
			ix, err = ifls.NewIndex(v)
			if err != nil {
				return fmt.Errorf("venue %q: %w", name, err)
			}
			s := v.Stats()
			log.Printf("venue %q: %d partitions, %d doors, %d levels; index built in %v",
				name, s.Partitions, s.Doors, s.Levels, time.Since(start).Round(time.Millisecond))
		}
		if path, ok := saves[name]; ok {
			if err := saveIndexAtomic(ix, path, *pageSize); err != nil {
				return fmt.Errorf("saving index for %q: %w", name, err)
			}
			log.Printf("venue %q: index saved to %s", name, path)
		}
		return srv.AddVenue(name, ix)
	}

	if *venueList != "" {
		for _, name := range strings.Split(*venueList, ",") {
			name = strings.TrimSpace(name)
			v, err := ifls.SampleVenue(name)
			if err != nil {
				return err
			}
			if err := register(name, v); err != nil {
				return err
			}
		}
	}
	files, err := parsePairs(*venueFiles)
	if err != nil {
		return err
	}
	for name, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		v, err := ifls.LoadVenue(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("venue file %q: %w", path, err)
		}
		if err := register(name, v); err != nil {
			return err
		}
	}

	if *buildOnly {
		log.Printf("build-only: %d index file(s) written; exiting", len(saves))
		return nil
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("serving on %s (drain timeout %v)", *addr, *drainTimeout)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("got %v; draining (up to %v)", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the query layer first (refuse new work, let flights finish),
	// then the HTTP layer (close idle connections, wait for handlers). The
	// HTTP drain gets its own budget: even when the query drain exhausts
	// drainTimeout, handlers still need a moment to write their (possibly
	// cancellation) responses before connections are torn down.
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("query drain incomplete: %v", err)
	}
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := hs.Shutdown(httpCtx); err != nil {
		return err
	}
	// Every query is drained; release paged-index files and mappings.
	for _, ix := range opened {
		if err := ix.Close(); err != nil {
			log.Printf("closing paged index: %v", err)
		}
	}
	snap := m.Snapshot()
	log.Printf("drained: %d queries served (%d errors, %d coalesce hits / %d misses)",
		snap.Queries, snap.Errors, snap.CoalesceHits, snap.CoalesceMisses)
	return nil
}

// saveIndexAtomic persists an index — in the paged format, so a later
// -indexfile boot is query-ready without reading the matrix heap — with the
// temp-file-and-rename dance: the bytes land in a temp file in the
// destination directory, are synced to disk, and only then renamed over the
// final path. A crash at any point leaves either the old file or no file —
// never a half-written index (the loader would refuse one anyway, via its
// checksums, but a clean save should not depend on that).
func saveIndexAtomic(ix *ifls.Index, path string, pageSize int) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename has happened
	if err := ix.SavePaged(tmp, ifls.PagedSaveOptions{PageSize: pageSize}); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// parsePairs parses a comma-separated NAME=PATH list.
func parsePairs(s string) (map[string]string, error) {
	out := map[string]string{}
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("malformed NAME=PATH entry %q", pair)
		}
		out[name] = path
	}
	return out, nil
}
