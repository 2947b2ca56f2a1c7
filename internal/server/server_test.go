package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// newTestServer builds a server over the Corridor3 venue (registered as
// "c3") with the given options.
func newTestServer(t testing.TB, opts Options) (*Server, *indoor.Venue) {
	t.Helper()
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	reg := NewRegistry()
	if err := reg.Add("c3", v, tree); err != nil {
		t.Fatal(err)
	}
	return New(reg, opts), v
}

// wireQuery is toBatchQuery for a request the test knows names a served
// objective.
func wireQuery(req QueryRequest) batch.Query {
	bq, err := toBatchQuery(req)
	if err != nil {
		panic(err)
	}
	return bq
}

// c3Request is a valid query against Corridor3: clients in rooms 1 and 3,
// one existing facility in room 1, candidates in rooms 2 and 3.
func c3Request() QueryRequest {
	return QueryRequest{
		Venue:      "c3",
		Existing:   []int32{1},
		Candidates: []int32{2, 3},
		Clients: []ClientJSON{
			{ID: 0, X: 5, Y: 10, Level: 0, Partition: 1},
			{ID: 1, X: 25, Y: 10, Level: 0, Partition: 3},
		},
	}
}

// post sends a query request body to the handler and returns the recorder.
func post(t testing.TB, h http.Handler, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", &buf)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeResponse(t testing.TB, w *httptest.ResponseRecorder) QueryResponse {
	t.Helper()
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func decodeError(t testing.TB, w *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var resp ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("error response not JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

// TestQueryMatchesSession pins the serving path to the library: the HTTP
// answer must be byte-identical (answer ID, objective bits) to a direct
// Session query on the same query.
func TestQueryMatchesSession(t *testing.T) {
	s, v := newTestServer(t, Options{})
	w := post(t, s.Handler(), c3Request())
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", w.Code, w.Body.String())
	}
	resp := decodeResponse(t, w)

	tree := vip.MustBuild(v, vip.DefaultOptions())
	req := c3Request()
	q := wireQuery(req).Query
	ref, _ := core.NewSession(tree).Exec(context.Background(), q, core.Options{})
	want := ref.MinMax
	if !want.Found || !resp.Found {
		t.Fatalf("found = %v/%v, want both true", want.Found, resp.Found)
	}
	if *resp.Answer != int32(want.Answer) {
		t.Errorf("answer = %d, want %d", *resp.Answer, want.Answer)
	}
	if *resp.Value != want.Objective {
		t.Errorf("value = %v, want %v (bit-exact)", *resp.Value, want.Objective)
	}
	if resp.Stats.DistanceCalcs != want.Stats.DistanceCalcs || resp.Stats.QueuePops != want.Stats.QueuePops {
		t.Errorf("stats = %+v, want %+v", resp.Stats, want.Stats)
	}
}

// TestObjectives exercises every served objective through the endpoint.
func TestObjectives(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, obj := range []string{"", "minmax", "baseline", "mindist", "maxsum", "topk"} {
		req := c3Request()
		req.Objective = obj
		if obj == "topk" {
			req.K = 2
		}
		w := post(t, s.Handler(), req)
		if w.Code != http.StatusOK {
			t.Fatalf("objective %q: status = %d: %s", obj, w.Code, w.Body.String())
		}
		resp := decodeResponse(t, w)
		if !resp.Found {
			t.Errorf("objective %q: found = false", obj)
		}
		if obj == "topk" && len(resp.Ranking) == 0 {
			t.Errorf("topk: empty ranking")
		}
	}
}

// statusCase is one request of the status-table contract: what is sent
// and the documented status and error code it must draw.
type statusCase struct {
	name   string
	method string
	path   string
	body   any
	status int
	code   string
	// counted: the rejection is a query-content error that lands in
	// the Metrics queries/errors counters; transport-level rejections
	// (bad JSON, unknown venue, wrong method, oversized body) do not.
	counted bool
}

// statusTableCases returns the requests TestStatusTable checks against
// their documented status and error code; FuzzQueryRequest seeds its
// corpus with their bodies. The oversized body assumes
// Options.MaxBodyBytes = 256.
func statusTableCases() []statusCase {
	badQuery := c3Request()
	badQuery.Candidates = []int32{99} // out of range -> ErrInvalidQuery
	badObjective := c3Request()
	badObjective.Objective = "fastest"
	multiObjective := c3Request()
	multiObjective.Objective = "multi" // a library objective with no wire payload

	return []statusCase{
		{"invalid query", http.MethodPost, "/v1/query", badQuery, http.StatusBadRequest, "invalid_query", true},
		{"unknown objective", http.MethodPost, "/v1/query", badObjective, http.StatusBadRequest, "unknown_objective", true},
		{"multi objective", http.MethodPost, "/v1/query", multiObjective, http.StatusBadRequest, "unknown_objective", true},
		{"malformed json", http.MethodPost, "/v1/query", `{"venue":`, http.StatusBadRequest, "malformed_json", false},
		{"unknown venue", http.MethodPost, "/v1/query", QueryRequest{Venue: "nope", Candidates: []int32{0}}, http.StatusNotFound, "unknown_venue", false},
		{"method not allowed", http.MethodGet, "/v1/query", nil, http.StatusMethodNotAllowed, "method_not_allowed", false},
		{"body too large", http.MethodPost, "/v1/query", `{"venue":"c3","clients":[` + strings.Repeat(`{"id":1},`, 100) + `{}]}`, http.StatusRequestEntityTooLarge, "body_too_large", false},
	}
}

// TestStatusTable exercises every documented non-200 status code and its
// stable error code — the SERVING.md contract.
func TestStatusTable(t *testing.T) {
	m := obs.NewMetrics()
	s, _ := newTestServer(t, Options{MaxBodyBytes: 256, Metrics: m})

	for _, tc := range statusTableCases() {
		t.Run(tc.name, func(t *testing.T) {
			before := m.Snapshot()
			var w *httptest.ResponseRecorder
			if tc.method == http.MethodPost {
				w = post(t, s.Handler(), tc.body)
			} else {
				w = httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, nil))
			}
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			if got := decodeError(t, w).Code; got != tc.code {
				t.Errorf("code = %q, want %q", got, tc.code)
			}
			want := int64(0)
			if tc.counted {
				want = 1
			}
			after := m.Snapshot()
			if dq, de := after.Queries-before.Queries, after.Errors-before.Errors; dq != want || de != want {
				t.Errorf("queries/errors delta = %d/%d, want %d/%d", dq, de, want, want)
			}
		})
	}
}

// TestHTTPStatusMapping pins every row of the faults→HTTP table in
// SERVING.md, including taxonomy errors the HTTP tests above cannot
// reach through a well-formed request.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{errUnknownVenue, http.StatusNotFound, "unknown_venue"},
		{faults.ErrInvalidQuery, http.StatusBadRequest, "invalid_query"},
		{faults.ErrUnknownObjective, http.StatusBadRequest, "unknown_objective"},
		{faults.ErrInvalidWorkload, http.StatusBadRequest, "invalid_workload"},
		{faults.ErrInvalidOptions, http.StatusBadRequest, "invalid_options"},
		{faults.ErrMalformedVenue, http.StatusUnprocessableEntity, "malformed_venue"},
		{faults.ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
		{faults.ErrCancelled, StatusClientClosedRequest, "cancelled"},
		{faults.ErrSolverPanic, http.StatusInternalServerError, "solver_panic"},
		{errors.New("anything else"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		status, code := httpStatus(fmt.Errorf("wrapped: %w", tc.err))
		if status != tc.status || code != tc.code {
			t.Errorf("httpStatus(%v) = %d %q, want %d %q", tc.err, status, code, tc.status, tc.code)
		}
	}
}

// TestLazyBuildFailure maps a failed lazy index build to its taxonomy
// status: a malformed venue surfaces as 422, and /readyz degrades.
func TestLazyBuildFailure(t *testing.T) {
	s, v := newTestServer(t, Options{})
	err := s.Registry().AddLazy("broken", v, func(context.Context) (*vip.Tree, error) {
		return nil, fmt.Errorf("%w: no partitions", faults.ErrMalformedVenue)
	})
	if err != nil {
		t.Fatal(err)
	}
	req := c3Request()
	req.Venue = "broken"
	w := post(t, s.Handler(), req)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", w.Code, w.Body.String())
	}
	if got := decodeError(t, w).Code; got != "malformed_venue" {
		t.Errorf("code = %q, want malformed_venue", got)
	}

	// The cached failure now degrades readiness.
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rw.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after failed build = %d, want 503", rw.Code)
	}

	// A generic (non-taxonomy) build failure maps to 500 internal.
	if err := s.Registry().AddLazy("flaky", v, func(context.Context) (*vip.Tree, error) {
		return nil, errors.New("disk on fire")
	}); err != nil {
		t.Fatal(err)
	}
	req.Venue = "flaky"
	w = post(t, s.Handler(), req)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", w.Code, w.Body.String())
	}
	if got := decodeError(t, w).Code; got != "internal" {
		t.Errorf("code = %q, want internal", got)
	}
}

// TestLazyBuildCancelledNotCached pins the recovery path: a lazy build
// aborted by cancellation (a client disconnect or a drain mid-build) is
// reported to that caller but not cached — the next query retries the
// build and succeeds, instead of inheriting a permanently failed venue.
func TestLazyBuildCancelledNotCached(t *testing.T) {
	v := testvenue.Corridor3()
	reg := NewRegistry()
	calls := 0
	if err := reg.AddLazy("c3", v, func(ctx context.Context) (*vip.Tree, error) {
		calls++
		if calls == 1 {
			return nil, faults.Cancelled(context.Canceled)
		}
		return vip.BuildContext(ctx, v, vip.DefaultOptions())
	}); err != nil {
		t.Fatal(err)
	}
	e := reg.lookup("c3")
	if _, err := e.index(context.Background()); !errors.Is(err, faults.ErrCancelled) {
		t.Fatalf("first index() err = %v, want ErrCancelled", err)
	}
	if err := reg.Ready(); err != nil {
		t.Fatalf("cancelled build degraded readiness: %v", err)
	}
	tree, err := e.index(context.Background())
	if err != nil || tree == nil {
		t.Fatalf("retry index() = (%v, %v), want a built tree", tree, err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (one cancelled, one retried)", calls)
	}
}

// TestLazyBuildServes proves the on-demand path: a venue registered lazily
// answers its first query by building the index then, and /v1/venues flips
// its ready flag.
func TestLazyBuildServes(t *testing.T) {
	v := testvenue.Corridor3()
	reg := NewRegistry()
	built := 0
	if err := reg.AddLazy("c3", v, func(ctx context.Context) (*vip.Tree, error) {
		built++
		return vip.BuildContext(ctx, v, vip.DefaultOptions())
	}); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Options{})

	var vl VenuesResponse
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/venues", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &vl); err != nil {
		t.Fatal(err)
	}
	if len(vl.Venues) != 1 || vl.Venues[0].Ready {
		t.Fatalf("before first query: venues = %+v, want one not-ready entry", vl.Venues)
	}

	if w := post(t, s.Handler(), c3Request()); w.Code != http.StatusOK {
		t.Fatalf("lazy query status = %d: %s", w.Code, w.Body.String())
	}
	if built != 1 {
		t.Fatalf("build ran %d times, want 1", built)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/venues", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &vl); err != nil {
		t.Fatal(err)
	}
	if !vl.Venues[0].Ready {
		t.Errorf("after first query: ready = false, want true")
	}
}

// TestHealthAndReady pins the liveness/readiness semantics: healthz is
// always 200, readyz flips to 503 on drain while healthz stays 200.
func TestHealthAndReady(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", w.Code)
	}
	if w := get("/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", w.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if w := get("/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", w.Code)
	}
	if w := get("/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", w.Code)
	}
	if w := post(t, s.Handler(), c3Request()); w.Code != http.StatusServiceUnavailable {
		t.Errorf("query while draining = %d, want 503", w.Code)
	} else if decodeError(t, w).Code != "draining" {
		t.Errorf("drain code = %q, want draining", decodeError(t, w).Code)
	}
}

// TestOverload pins the admission limit: with MaxInFlight=1 and a held
// flight, a concurrent query on the same venue is shed with 429 and the
// overloaded error code, and a Retry-After header.
func TestOverload(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxInFlight: 1})
	hold := make(chan struct{})
	entered := make(chan struct{})
	s.co.leaderGate = func(string) {
		close(entered)
		<-hold
	}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post(t, s.Handler(), c3Request()) }()
	<-entered

	other := c3Request()
	other.Candidates = []int32{2} // different key: must not coalesce, must hit the limit
	w := post(t, s.Handler(), other)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", w.Code, w.Body.String())
	}
	if got := decodeError(t, w).Code; got != "overloaded" {
		t.Errorf("code = %q, want overloaded", got)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Errorf("missing Retry-After header")
	}
	close(hold)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("held query status = %d: %s", w.Code, w.Body.String())
	}
}

// TestExpvarCatalog pins the documented metrics catalog: every expvar key
// SERVING.md names must be present in the rendered metrics object,
// including the serving additions.
func TestExpvarCatalog(t *testing.T) {
	m := obs.NewMetrics()
	s, _ := newTestServer(t, Options{Metrics: m})
	if w := post(t, s.Handler(), c3Request()); w.Code != http.StatusOK {
		t.Fatalf("query status = %d", w.Code)
	}
	var rendered map[string]any
	if err := json.Unmarshal([]byte(m.ExpvarString()), &rendered); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"queries", "errors", "cancellations", "found", "stages", "latency",
		"clients", "pruned_clients", "distance_calcs", "queue_pops",
		"prune_rate", "coalesce_hits", "coalesce_misses", "in_flight",
		"queries_timed_out", "flights_reaped",
		"page_cache_hits", "page_cache_misses", "page_cache_evictions", "pages_read",
		"continuous_ticks", "continuous_clients_resolved", "continuous_clients_reused", "continuous_clients_carried",
		"continuous_schedule_invalidations", "continuous_answer_changes", "continuous_signatures",
	} {
		if _, ok := rendered[key]; !ok {
			t.Errorf("expvar key %q missing from metrics export", key)
		}
	}
	snap := m.Snapshot()
	if snap.Queries != 1 || snap.CoalesceMisses != 1 || snap.CoalesceHits != 0 {
		t.Errorf("queries/misses/hits = %d/%d/%d, want 1/1/0", snap.Queries, snap.CoalesceMisses, snap.CoalesceHits)
	}
	if snap.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after completion, want 0", snap.InFlight)
	}

	// The debug surface serves the same object over HTTP.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/vars = %d, want 200", w.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["ifls"]; !ok {
		t.Errorf(`/debug/vars missing the "ifls" metrics object`)
	}
}
