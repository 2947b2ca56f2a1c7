package ifls

import (
	"context"
	"net/http"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/server"
	"github.com/indoorspatial/ifls/internal/vip"
)

// ErrOverloaded marks queries shed at the serving layer's admission
// boundary: the target venue is at its in-flight limit. Retry after
// backing off. Part of the error taxonomy; classify with errors.Is.
var ErrOverloaded = faults.ErrOverloaded

// ErrDeadlineExceeded marks queries terminated by a server-side deadline:
// the configured query timeout (or the request's own clamped timeout_ms)
// expired before the traversal converged. Served as 504. Part of the error
// taxonomy; classify with errors.Is.
var ErrDeadlineExceeded = faults.ErrDeadlineExceeded

// ErrCorruptIndex marks persisted indexes that fail integrity verification
// on load: a mangled header, checksum mismatch, or decoded structure that
// fails deep validation. LoadIndex never returns a partial index alongside
// it. Part of the error taxonomy; classify with errors.Is.
var ErrCorruptIndex = faults.ErrCorruptIndex

// ServerHooks intercept serving internals, primarily for fault injection
// and operational testing; see the fields' documentation. All hooks may be
// called concurrently; nil hooks are skipped.
type ServerHooks = server.Hooks

// ServerOptions configure NewServer: the per-venue admission limit
// (MaxInFlight), metrics, the request-body cap (MaxBodyBytes), the
// server-side query deadline (QueryTimeout) and fault-injection hooks;
// see the fields' documentation. The zero value serves with the default
// limits, no query deadline, and no metrics. Request coalescing and the
// reaping of abandoned flights are always on.
type ServerOptions = server.Options

// Server is a multi-venue IFLS query service over HTTP: a registry of warm
// indexes behind a JSON API, with request coalescing (concurrent identical
// queries share one traversal), per-venue admission limits, health and
// readiness endpoints, the expvar/pprof debug surface, and graceful drain.
// SERVING.md documents the full HTTP API and the operations runbook.
// All methods are safe for concurrent use.
type Server struct{ s *server.Server }

// NewServer creates an empty query server; register venues with AddVenue
// or AddVenueLazy, then mount Handler on a listener:
//
//	srv := ifls.NewServer(ifls.ServerOptions{Metrics: ifls.NewMetrics()})
//	srv.AddVenue("MC", ix)
//	http.ListenAndServe(":8080", srv.Handler())
func NewServer(opts ServerOptions) *Server {
	return &Server{s: server.New(server.NewRegistry(), opts)}
}

// AddVenue registers a venue with its prebuilt index under name. Queries
// naming the venue are served immediately. Registering a taken name
// returns ErrInvalidOptions.
func (s *Server) AddVenue(name string, ix *Index) error {
	if ix == nil {
		return faults.ErrInvalidOptions
	}
	return s.s.Registry().Add(name, ix.venue, ix.tree)
}

// AddVenueLazy registers a venue whose index is built on the first query
// that needs it — the cold-start-friendly path for large venues. The
// build runs at most once with the given options; a failure is cached and
// reported by every query against the venue (and by /readyz).
func (s *Server) AddVenueLazy(name string, v *Venue, opts IndexOptions) error {
	if v == nil {
		return faults.ErrInvalidOptions
	}
	return s.s.Registry().AddLazy(name, v, func(ctx context.Context) (*vip.Tree, error) {
		ix, err := NewIndexContext(ctx, v, opts)
		if err != nil {
			return nil, err
		}
		return ix.tree, nil
	})
}

// Handler returns the server's HTTP surface (query, venues, healthz,
// readyz, and /debug), ready to mount on any listener.
func (s *Server) Handler() http.Handler { return s.s.Handler() }

// Draining reports whether Shutdown has been called.
func (s *Server) Draining() bool { return s.s.Draining() }

// Shutdown drains the server: new queries are refused immediately,
// in-flight queries — including coalesced flights — run to completion
// and deliver complete answers, and only then do remaining contexts
// cancel. If ctx expires first, the leftover flights are cancelled and
// ctx's error is returned. Pair with http.Server.Shutdown for the
// connection-level drain (see cmd/iflsd).
func (s *Server) Shutdown(ctx context.Context) error { return s.s.Shutdown(ctx) }
