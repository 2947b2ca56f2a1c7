package ifls_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

func observedFixture(t *testing.T) (*ifls.Index, *ifls.Query, *ifls.Metrics) {
	t.Helper()
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	c0, err := ix.ClientAt(0, ifls.Pt(5, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	c3, err := ix.ClientAt(1, ifls.Pt(35, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[1], rooms[2], rooms[3]},
		Clients:    []ifls.Client{c0, c3},
	}
	return ix, q, ifls.NewMetrics()
}

func TestWithMetricsObservesQueries(t *testing.T) {
	ix, q, m := observedFixture(t)
	obsIx := ix.WithMetrics(m)
	if ix.Metrics() != nil {
		t.Fatal("WithMetrics mutated the receiver")
	}
	if obsIx.Metrics() != m {
		t.Fatal("Metrics() does not return the attached aggregate")
	}

	ctx := context.Background()
	plain := answer(t, ix, q, ifls.QueryOptions{})
	got := answer(t, obsIx, q, ifls.QueryOptions{})
	if got.MinMax != plain.MinMax {
		t.Fatalf("observed result %+v != plain %+v", got.MinMax, plain.MinMax)
	}
	for _, obj := range []ifls.Objective{ifls.Baseline, ifls.MinDist, ifls.MaxSum, ifls.TopK} {
		answer(t, obsIx, q, ifls.QueryOptions{Objective: obj, K: 2})
	}

	s := m.Snapshot()
	if s.Queries != 5 {
		t.Fatalf("Queries = %d, want 5", s.Queries)
	}
	if s.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", s.Errors)
	}
	if s.Stages.Total() == 0 {
		t.Fatal("no span events recorded")
	}
	// Five validated queries: the validate stage fired exactly five times.
	if got := s.Stages[0]; got != 5 { // StageValidate is ordinal 0
		t.Fatalf("validate spans = %d, want 5", got)
	}

	// A rejected query is observed as an error, with no new spans.
	before := m.Snapshot().Stages.Total()
	if _, err := obsIx.Query(ctx, nil, ifls.QueryOptions{}); !errors.Is(err, ifls.ErrInvalidQuery) {
		t.Fatalf("nil query: err = %v, want ErrInvalidQuery", err)
	}
	s = m.Snapshot()
	if s.Errors != 1 {
		t.Fatalf("Errors = %d after rejected query, want 1", s.Errors)
	}
	if s.Stages.Total() != before {
		t.Fatal("rejected query emitted span events")
	}

	// A cancelled query counts as a cancellation and leaves no spans.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before = s.Stages.Total()
	if _, err := obsIx.Query(cancelled, q, ifls.QueryOptions{}); !errors.Is(err, ifls.ErrCancelled) {
		t.Fatalf("cancelled: err = %v, want ErrCancelled", err)
	}
	s = m.Snapshot()
	if s.Cancellations != 1 {
		t.Fatalf("Cancellations = %d, want 1", s.Cancellations)
	}
	if s.Stages.Total() != before {
		t.Fatalf("cancelled query leaked solver spans: %d != %d", s.Stages.Total(), before)
	}
}

func TestMetricsMuxServes(t *testing.T) {
	ix, q, m := observedFixture(t)
	obsIx := ix.WithMetrics(m)
	answer(t, obsIx, q, ifls.QueryOptions{})

	srv := httptest.NewServer(ifls.MetricsMux(m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	var vars struct {
		IFLS struct {
			Queries int64             `json:"queries"`
			Stages  map[string]uint64 `json:"stages"`
		} `json:"ifls"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if vars.IFLS.Queries != 1 {
		t.Fatalf("expvar queries = %d, want 1", vars.IFLS.Queries)
	}
	if vars.IFLS.Stages["validate"] == 0 || vars.IFLS.Stages["locate"] == 0 {
		t.Fatalf("expvar stages missing counts: %v", vars.IFLS.Stages)
	}

	prof, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET /debug/pprof/cmdline: %v", err)
	}
	prof.Body.Close()
	if prof.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint status = %d", prof.StatusCode)
	}
}

func TestMetricsExpvarStringIsJSON(t *testing.T) {
	_, _, m := observedFixture(t)
	out := m.ExpvarString()
	if !strings.HasPrefix(out, "{") || !json.Valid([]byte(out)) {
		t.Fatalf("ExpvarString not valid JSON: %q", out)
	}
}
