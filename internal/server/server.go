package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/indoorspatial/ifls/internal/obs"
)

// DefaultMaxInFlight is the per-venue admission limit applied when
// Options.MaxInFlight is zero.
const DefaultMaxInFlight = 256

// DefaultMaxBodyBytes is the request-body size limit applied when
// Options.MaxBodyBytes is zero (a 10000-client query body is ~1 MB).
const DefaultMaxBodyBytes = 8 << 20

// abandonGrace is how long an abandoned flight — one whose every
// participant's request context has died — keeps running before it is
// reaped. Long enough for an identical retry to catch the flight mid-air,
// short enough that a scan of unique queries from disconnecting clients
// does not leak whole traversals.
const abandonGrace = 100 * time.Millisecond

// retryAfter is the Retry-After header value, in seconds, sent with 429
// overloaded and 503 draining responses.
const retryAfter = "1"

// Hooks intercept serving-internal operations, primarily for fault
// injection (internal/chaos) and operational testing. All hooks may be
// called concurrently; a nil hook is skipped.
type Hooks struct {
	// BeforeExecute runs on the flight goroutine after admission and
	// venue resolution, immediately before the solver executes. It may
	// block (latency injection) — it should honor ctx — and a non-nil
	// return fails the query with that error, classified through the
	// faults taxonomy like any solver failure.
	BeforeExecute func(ctx context.Context, venue string) error
	// BeforeBuild runs before a lazy venue's index build is triggered by a
	// query. A non-nil return fails that request without invoking (or
	// caching anything in) the real build; blocking simulates a slow
	// build.
	BeforeBuild func(ctx context.Context, venue string) error
}

// Options configure a Server. The zero value serves with the default
// admission and body limits, no query deadline, and no metrics. Request
// coalescing and abandoned-flight reaping are always on.
type Options struct {
	// MaxInFlight caps the queries admitted per venue at once; excess
	// requests are shed with 429/ErrOverloaded. Zero means
	// DefaultMaxInFlight; negative means unlimited.
	MaxInFlight int
	// Metrics, when non-nil, receives every query's spans and aggregate
	// observation plus the serving gauges (coalesce hits/misses,
	// in-flight); it is also mounted at /debug/vars via the obs mux.
	Metrics *obs.Metrics
	// MaxBodyBytes caps the request body size (413 beyond it). Zero means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// QueryTimeout bounds every query's wall time server-side; a query
	// that exceeds it terminates with 504/ErrDeadlineExceeded. A request
	// may shorten (never extend) its own deadline with the timeout_ms
	// body field. Zero means no server-side deadline. Coalesced flights
	// run until the MAX deadline across their participants.
	QueryTimeout time.Duration
	// Hooks intercept serving internals for fault injection; see Hooks.
	Hooks Hooks
}

// Server is the multi-venue IFLS query service: an http.Handler over a
// Registry of warm indexes, with request coalescing, per-venue admission
// limits, and graceful drain. Create with New; all methods are safe for
// concurrent use.
type Server struct {
	reg  *Registry
	opts Options
	co   *coalescer
	mux  *http.ServeMux

	// life is the lifecycle context shared flights run under; stop cancels
	// it once the drain completes (or its deadline expires).
	life context.Context
	stop context.CancelFunc

	// drainMu orders admission against Shutdown: admit holds it (shared)
	// around the draining check and inflight.Add, Shutdown holds it
	// (exclusive) while flipping draining. That guarantees every Add
	// happens-before Wait observes a zero counter — no query can slip past
	// the drain check after Wait has started.
	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	semMu sync.Mutex
	sems  map[string]chan struct{}
}

// New builds a Server over a registry. The registry may keep gaining
// venues after the server starts.
func New(reg *Registry, opts Options) *Server {
	life, stop := context.WithCancel(context.Background())
	s := &Server{
		reg:  reg,
		opts: opts,
		mux:  http.NewServeMux(),
		life: life,
		stop: stop,
		sems: map[string]chan struct{}{},
	}
	var onReap func()
	if opts.Metrics != nil {
		onReap = opts.Metrics.FlightReaped
	}
	s.co = newCoalescer(life, abandonGrace, onReap)
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/venues", s.handleVenues)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	// The standard debug surface (expvar JSON incl. the "ifls" metrics,
	// pprof) rides on the same mux; expose it to operators, not the open
	// internet (SERVING.md → Operations).
	s.mux.Handle("/debug/", obs.NewMux(opts.Metrics))
	return s
}

// Handler returns the server's HTTP surface, ready to mount on any
// listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's venue registry, for registering venues
// after construction.
func (s *Server) Registry() *Registry { return s.reg }

// Draining reports whether Shutdown has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: new queries are refused immediately (503,
// readiness flips), in-flight queries — including coalesced flights —
// run to completion and deliver complete answers, and only then does the
// lifecycle context cancel. If ctx expires first, Shutdown cancels the
// remaining flights (their clients see cancellation errors) and returns
// ctx's error. Callers serving over net/http should pair this with
// http.Server.Shutdown for the connection-level drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.stop()
	return err
}

// admit registers one query with the in-flight group unless the server is
// draining. On true the caller owns one inflight count and must Done it;
// on false the query must be refused. See drainMu for why the check and
// the Add are one atomic step.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// venueSem returns the venue's admission semaphore, creating it at the
// configured capacity on first use.
func (s *Server) venueSem(venue string) chan struct{} {
	s.semMu.Lock()
	defer s.semMu.Unlock()
	sem, ok := s.sems[venue]
	if !ok {
		n := s.opts.MaxInFlight
		if n == 0 {
			n = DefaultMaxInFlight
		}
		if n < 0 {
			n = 1 << 20 // effectively unlimited
		}
		sem = make(chan struct{}, n)
		s.sems[venue] = sem
	}
	return sem
}

// maxBodyBytes returns the configured request-body cap.
func (s *Server) maxBodyBytes() int64 {
	if s.opts.MaxBodyBytes > 0 {
		return s.opts.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

// queryDeadline resolves the effective timeout for one request: the
// server-wide QueryTimeout, shortened — never extended — by the request's
// own timeout_ms override. Zero means unbounded.
func (s *Server) queryDeadline(overrideMS int64) time.Duration {
	d := s.opts.QueryTimeout
	if overrideMS > 0 {
		o := time.Duration(overrideMS) * time.Millisecond
		if d == 0 || o < d {
			d = o
		}
	}
	return d
}
