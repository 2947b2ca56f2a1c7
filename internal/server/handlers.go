package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when a coalesced waiter's own request context is
// cancelled while the shared flight keeps running for the other clients.
const StatusClientClosedRequest = 499

// errUnknownVenue classifies requests naming a venue the registry does not
// hold; it maps to 404.
var errUnknownVenue = errors.New("server: unknown venue")

// ClientJSON is one query client on the wire: its identity, coordinates,
// and declared partition (validated server-side by Query.Validate).
type ClientJSON struct {
	ID        int32   `json:"id"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	Level     int     `json:"level"`
	Partition int32   `json:"partition"`
}

// QueryRequest is the POST /v1/query body: one IFLS query bound to a
// registered venue. Objective is one of minmax (the default when empty),
// baseline, mindist, maxsum, or topk; K is the result count for topk and
// ignored otherwise. TimeoutMS, when positive, shortens this request's
// server-side deadline below the configured query timeout (it can never
// extend it); past the deadline the request terminates with 504.
type QueryRequest struct {
	Venue      string       `json:"venue"`
	Objective  string       `json:"objective,omitempty"`
	K          int          `json:"k,omitempty"`
	TimeoutMS  int64        `json:"timeout_ms,omitempty"`
	Existing   []int32      `json:"existing"`
	Candidates []int32      `json:"candidates"`
	Clients    []ClientJSON `json:"clients"`
}

// StatsJSON mirrors core.Stats on the wire.
type StatsJSON struct {
	DistanceCalcs int `json:"distance_calcs"`
	Retrievals    int `json:"retrievals"`
	QueuePops     int `json:"queue_pops"`
	PrunedClients int `json:"pruned_clients"`
	RetainedBytes int `json:"retained_bytes"`
}

// RankedJSON is one entry of a topk answer.
type RankedJSON struct {
	Candidate int32   `json:"candidate"`
	Value     float64 `json:"value"`
}

// QueryResponse is the 200 body of POST /v1/query. Found reports whether
// some candidate improves on the status quo; Answer and Value are present
// only then (Value is omitted rather than encoded as NaN). Ranking is the
// topk payload. Coalesced reports whether this answer rode on another
// request's traversal instead of running its own.
type QueryResponse struct {
	Venue     string       `json:"venue"`
	Objective string       `json:"objective"`
	Found     bool         `json:"found"`
	Answer    *int32       `json:"answer,omitempty"`
	Value     *float64     `json:"value,omitempty"`
	Ranking   []RankedJSON `json:"ranking,omitempty"`
	Stats     StatsJSON    `json:"stats"`
	Coalesced bool         `json:"coalesced"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-200 response: a stable
// machine-readable code (see SERVING.md's status table) and the
// human-readable error chain.
type ErrorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// VenueInfo is one entry of the GET /v1/venues listing.
type VenueInfo struct {
	Name       string `json:"name"`
	Partitions int    `json:"partitions"`
	Doors      int    `json:"doors"`
	Levels     int    `json:"levels"`
	// Ready reports whether the venue's index is built; lazy venues warm
	// up on first query.
	Ready bool `json:"ready"`
	// Error carries a failed index build, if any.
	Error string `json:"error,omitempty"`
}

// VenuesResponse is the GET /v1/venues body.
type VenuesResponse struct {
	Venues []VenueInfo `json:"venues"`
}

// httpStatus maps a faults-taxonomy error to its HTTP status and stable
// error code. The mapping is the documented contract of SERVING.md; keep
// both in sync (TestStatusTable pins it).
func httpStatus(err error) (int, string) {
	switch {
	case errors.Is(err, errUnknownVenue):
		return http.StatusNotFound, "unknown_venue"
	case errors.Is(err, faults.ErrInvalidQuery):
		return http.StatusBadRequest, "invalid_query"
	case errors.Is(err, faults.ErrUnknownObjective):
		return http.StatusBadRequest, "unknown_objective"
	case errors.Is(err, faults.ErrInvalidWorkload):
		return http.StatusBadRequest, "invalid_workload"
	case errors.Is(err, faults.ErrInvalidOptions):
		return http.StatusBadRequest, "invalid_options"
	case errors.Is(err, faults.ErrMalformedVenue):
		return http.StatusUnprocessableEntity, "malformed_venue"
	case errors.Is(err, faults.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, faults.ErrCorruptIndex):
		return http.StatusInternalServerError, "corrupt_index"
	case errors.Is(err, faults.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, faults.ErrCancelled):
		return StatusClientClosedRequest, "cancelled"
	case errors.Is(err, faults.ErrSolverPanic):
		return http.StatusInternalServerError, "solver_panic"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders err through the status table. During a drain,
// cancellations are reported as 503 draining (the server killed the work),
// not 499 (the client did). Shed (429) and draining (503) responses both
// carry a Retry-After header so well-behaved clients back off.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := httpStatus(err)
	if status == StatusClientClosedRequest && s.draining.Load() {
		status, code = http.StatusServiceUnavailable, "draining"
	}
	if status == http.StatusTooManyRequests || code == "draining" {
		w.Header().Set("Retry-After", retryAfter)
	}
	if status == http.StatusGatewayTimeout && s.opts.Metrics != nil {
		s.opts.Metrics.QueryTimedOut()
	}
	writeJSON(w, status, ErrorResponse{Code: code, Error: err.Error()})
}

// deadlineClass upgrades a cancellation whose cause is a deadline expiry to
// the deadline class: solvers report any context death as ErrCancelled, but
// when the context died because the query's own time budget ran out, the
// terminal status is 504, not 499.
func deadlineClass(err error) error {
	if err != nil && errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, faults.ErrDeadlineExceeded) {
		return faults.Deadline(err)
	}
	return err
}

// handleHealthz reports process liveness: 200 whenever the process can
// answer HTTP at all, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports admission readiness: 200 when the server accepts
// queries, 503 while draining or when a venue's index build has failed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if err := s.reg.Ready(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "degraded", "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleVenues lists the registered venues and their index state.
func (s *Server) handleVenues(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Code: "method_not_allowed", Error: "use GET"})
		return
	}
	resp := VenuesResponse{Venues: []VenueInfo{}}
	for _, name := range s.reg.Names() {
		e := s.reg.lookup(name)
		vs := e.venue.Stats()
		ready, err := e.state()
		info := VenueInfo{Name: name, Partitions: vs.Partitions, Doors: vs.Doors, Levels: vs.Levels, Ready: ready}
		if err != nil {
			info.Error = err.Error()
		}
		resp.Venues = append(resp.Venues, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQuery is the query endpoint: admit → validate → coalesce →
// execute → respond (see the package documentation).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Code: "method_not_allowed", Error: "use POST"})
		return
	}
	if !s.admit() {
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Code: "draining", Error: "server is draining"})
		return
	}
	defer s.inflight.Done()

	var req QueryRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes())
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Code: "body_too_large",
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Code: "malformed_json", Error: err.Error()})
		return
	}

	e := s.reg.lookup(req.Venue)
	if e == nil {
		s.writeError(w, fmt.Errorf("%w: %q", errUnknownVenue, req.Venue))
		return
	}

	// Per-venue admission: shed load with a typed overload error instead
	// of queueing unboundedly.
	sem := s.venueSem(req.Venue)
	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	default:
		s.writeError(w, fmt.Errorf("%w: venue %q at its in-flight limit (%d)",
			faults.ErrOverloaded, req.Venue, cap(sem)))
		return
	}
	if s.opts.Metrics != nil {
		s.opts.Metrics.QueryInFlight(1)
		defer s.opts.Metrics.QueryInFlight(-1)
	}

	// The request context carries the effective server-side deadline: the
	// configured QueryTimeout, shortened (never extended) by the body's
	// timeout_ms. A negative override is a malformed request.
	if req.TimeoutMS < 0 {
		s.writeError(w, fmt.Errorf("%w: negative timeout_ms %d", faults.ErrInvalidOptions, req.TimeoutMS))
		return
	}
	reqCtx := r.Context()
	if d := s.queryDeadline(req.TimeoutMS); d > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, d)
		defer cancel()
	}

	// Build lazy indexes under the server lifecycle context, not the
	// request's: the first client disconnecting must not abort (let alone
	// permanently poison) a build every later query depends on. The
	// BeforeBuild hook fires only while the venue is cold, so fault
	// injection tracks real build triggers.
	if hook := s.opts.Hooks.BeforeBuild; hook != nil {
		if ready, _ := e.state(); !ready {
			if err := hook(reqCtx, req.Venue); err != nil {
				s.writeError(w, deadlineClass(err))
				return
			}
		}
	}
	tree, err := e.index(s.life)
	if err != nil {
		s.writeError(w, err)
		return
	}

	bq, err := toBatchQuery(req)
	if err != nil {
		// Rejected before batch.Execute, which would have counted it: count
		// it here so every query-content rejection reports alike.
		if s.opts.Metrics != nil {
			s.opts.Metrics.ObserveQuery(obs.QueryObservation{Err: err})
		}
		s.writeError(w, err)
		return
	}
	execute := func(ctx context.Context) batch.Result {
		if hook := s.opts.Hooks.BeforeExecute; hook != nil {
			if err := hook(ctx, req.Venue); err != nil {
				res := batch.Result{Err: err}
				if errorsIsCancel(err) {
					res.Err = faults.Cancelled(err)
				}
				return res
			}
		}
		return batch.Execute(ctx, tree, bq, s.opts.Metrics)
	}
	start := time.Now()
	// The shared flight runs under the flight context the coalescer
	// derives from the server lifecycle: it outlives any single client and
	// dies on drain, flight-wide deadline, or abandonment.
	res, hit, err := s.co.do(reqCtx, queryKey(req.Venue, bq), execute)
	if err != nil {
		// This caller stopped waiting (its own deadline or hang-up); the
		// flight lives on for the other participants.
		s.writeError(w, err)
		return
	}
	if s.opts.Metrics != nil {
		if hit {
			s.opts.Metrics.CoalesceHit()
		} else {
			s.opts.Metrics.CoalesceMiss()
		}
	}
	if res.Err != nil {
		s.writeError(w, deadlineClass(res.Err))
		return
	}
	writeJSON(w, http.StatusOK, toResponse(req, bq, res, hit, time.Since(start)))
}

// toBatchQuery converts a wire request into the batch execution form. It
// rejects an objective outside the wire's five (ErrUnknownObjective: the
// HTTP API has no multi-facility payload). Malformed content (unknown IDs,
// bad coordinates) is not checked here — Query.Validate inside
// batch.Execute rejects it with ErrInvalidQuery.
func toBatchQuery(req QueryRequest) (batch.Query, error) {
	obj, err := core.ParseObjective(req.Objective)
	if err == nil && obj == core.ObjMulti {
		err = fmt.Errorf("%w: %q is not served over HTTP", faults.ErrUnknownObjective, req.Objective)
	}
	if err != nil {
		return batch.Query{}, err
	}
	q := &core.Query{
		Existing:   make([]indoor.PartitionID, len(req.Existing)),
		Candidates: make([]indoor.PartitionID, len(req.Candidates)),
		Clients:    make([]core.Client, len(req.Clients)),
	}
	for i, f := range req.Existing {
		q.Existing[i] = indoor.PartitionID(f)
	}
	for i, f := range req.Candidates {
		q.Candidates[i] = indoor.PartitionID(f)
	}
	for i, c := range req.Clients {
		q.Clients[i] = core.Client{
			ID:   c.ID,
			Loc:  geom.Pt(c.X, c.Y, c.Level),
			Part: indoor.PartitionID(c.Partition),
		}
	}
	return batch.Query{Objective: obj, K: req.K, Query: q}, nil
}

// toResponse renders one successful execution for the wire from the
// payload the query's objective populated.
func toResponse(req QueryRequest, bq batch.Query, res batch.Result, coalesced bool, elapsed time.Duration) QueryResponse {
	out := res.Outcome(bq.Objective)
	resp := QueryResponse{
		Venue:     req.Venue,
		Objective: bq.Objective.String(),
		Found:     out.Found,
		Stats: StatsJSON{
			DistanceCalcs: out.Stats.DistanceCalcs,
			Retrievals:    out.Stats.Retrievals,
			QueuePops:     out.Stats.QueuePops,
			PrunedClients: out.Stats.PrunedClients,
			RetainedBytes: out.Stats.RetainedBytes,
		},
		Coalesced: coalesced,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	switch {
	case bq.Objective == core.ObjTopK:
		resp.Ranking = make([]RankedJSON, len(res.TopK))
		for i, rc := range res.TopK {
			resp.Ranking[i] = RankedJSON{Candidate: int32(rc.Candidate), Value: rc.Objective}
		}
	case out.Found:
		a := int32(out.Answer)
		resp.Answer = &a
		if !math.IsNaN(out.Value) {
			v := out.Value
			resp.Value = &v
		}
	}
	return resp
}
