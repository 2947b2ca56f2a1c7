package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestCoalescedMatchesSession is the headline correctness property: K
// concurrent identical queries — forced onto one shared flight — all
// return results byte-identical to an uncoalesced Session query, with
// exactly one traversal executed and K-1 coalesce hits recorded. Run
// under -race, this also proves the fan-out shares the result safely.
func TestCoalescedMatchesSession(t *testing.T) {
	const K = 8
	m := obs.NewMetrics()
	s, v := newTestServer(t, Options{Metrics: m})

	// Hold the leader's flight open until all K-1 waiters have joined, so
	// coalescing is deterministic rather than a race the test hopes to win.
	key := queryKey("c3", wireQuery(c3Request()))
	release := make(chan struct{})
	s.co.leaderGate = func(string) { <-release }
	go func() {
		for s.co.waiters(key) < K-1 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()

	var wg sync.WaitGroup
	responses := make([]QueryResponse, K)
	codes := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s.Handler(), c3Request())
			codes[i] = w.Code
			if w.Code == http.StatusOK {
				responses[i] = decodeResponse(t, w)
			}
		}(i)
	}
	wg.Wait()

	tree := vip.MustBuild(v, vip.DefaultOptions())
	ref, _ := core.NewSession(tree).Exec(context.Background(), wireQuery(c3Request()).Query, core.Options{})
	want := ref.MinMax
	leaders := 0
	for i := 0; i < K; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		r := responses[i]
		if !r.Found || *r.Answer != int32(want.Answer) ||
			math.Float64bits(*r.Value) != math.Float64bits(want.Objective) {
			t.Errorf("request %d: (%v, %v, %v) != session (%v, %v, %v)",
				i, r.Found, *r.Answer, *r.Value, want.Found, want.Answer, want.Objective)
		}
		if !r.Coalesced {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d, want exactly 1", leaders)
	}

	snap := m.Snapshot()
	if snap.CoalesceHits != K-1 || snap.CoalesceMisses != 1 {
		t.Errorf("coalesce hits/misses = %d/%d, want %d/1", snap.CoalesceHits, snap.CoalesceMisses, K-1)
	}
	// One traversal's worth of work: the solver observation ran once, so
	// the work counters equal a single solo run's, not K times it.
	if snap.Queries != 1 {
		t.Errorf("observed solver queries = %d, want 1 (shared flight)", snap.Queries)
	}
	if snap.QueuePops != int64(want.Stats.QueuePops) || snap.DistanceCalcs != int64(want.Stats.DistanceCalcs) {
		t.Errorf("work counters = %d pops / %d calcs, want one traversal's %d/%d",
			snap.QueuePops, snap.DistanceCalcs, want.Stats.QueuePops, want.Stats.DistanceCalcs)
	}
}

// TestNearIdenticalDoNotCoalesce: queries differing in any fingerprint
// component (a client coordinate here) must run their own flights and
// still each match their own uncoalesced answer.
func TestNearIdenticalDoNotCoalesce(t *testing.T) {
	m := obs.NewMetrics()
	s, v := newTestServer(t, Options{Metrics: m})

	reqA := c3Request()
	reqB := c3Request()
	reqB.Clients[1].X = 24.5 // near-identical: one coordinate differs

	if ka, kb := queryKey("c3", wireQuery(reqA)), queryKey("c3", wireQuery(reqB)); ka == kb {
		t.Fatal("near-identical queries produced an equal fingerprint")
	}

	tree := vip.MustBuild(v, vip.DefaultOptions())
	session := core.NewSession(tree)
	for _, req := range []QueryRequest{reqA, reqB} {
		w := post(t, s.Handler(), req)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
		resp := decodeResponse(t, w)
		ref, _ := session.Exec(context.Background(), wireQuery(req).Query, core.Options{})
		want := ref.MinMax
		if !resp.Found || *resp.Answer != int32(want.Answer) ||
			math.Float64bits(*resp.Value) != math.Float64bits(want.Objective) {
			t.Errorf("req %+v: got (%v,%v), want (%v,%v)", req.Clients[1], *resp.Answer, *resp.Value, want.Answer, want.Objective)
		}
		if resp.Coalesced {
			t.Errorf("near-identical query coalesced; fingerprints must differ")
		}
	}
	if snap := m.Snapshot(); snap.CoalesceHits != 0 || snap.CoalesceMisses != 2 {
		t.Errorf("hits/misses = %d/%d, want 0/2", snap.CoalesceHits, snap.CoalesceMisses)
	}
}

// TestWaiterCancelDoesNotCancelFlight: a coalesced waiter whose request
// context dies gets a cancellation response, while the shared flight runs
// to completion and serves the surviving clients a full answer.
func TestWaiterCancelDoesNotCancelFlight(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	key := queryKey("c3", wireQuery(c3Request()))
	entered := make(chan struct{})
	release := make(chan struct{})
	s.co.leaderGate = func(string) {
		close(entered)
		<-release
	}

	// Start the leader alone and wait for it to hold the flight open, so the
	// clients below are guaranteed to join as waiters.
	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- post(t, s.Handler(), c3Request()) }()
	<-entered
	survivorDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { survivorDone <- post(t, s.Handler(), c3Request()) }()

	// A third client joins the same flight, then hangs up.
	ctx, cancel := context.WithCancel(context.Background())
	body, err := json.Marshal(c3Request())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	canceledDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		canceledDone <- w
	}()

	for s.co.waiters(key) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	w := <-canceledDone
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled waiter status = %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body.String())
	}
	if got := decodeError(t, w).Code; got != "cancelled" {
		t.Errorf("cancelled waiter code = %q, want cancelled", got)
	}

	close(release)
	for _, ch := range []chan *httptest.ResponseRecorder{leaderDone, survivorDone} {
		w := <-ch
		if w.Code != http.StatusOK {
			t.Fatalf("surviving client status = %d: %s", w.Code, w.Body.String())
		}
		if resp := decodeResponse(t, w); !resp.Found {
			t.Errorf("surviving client got found=false, want a complete answer")
		}
	}
}

// TestDrainCompletesInflight: Shutdown called mid-flight refuses new
// queries immediately but lets the running flight finish and deliver a
// complete answer, and Shutdown returns only after it has.
func TestDrainCompletesInflight(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	release := make(chan struct{})
	entered := make(chan struct{})
	s.co.leaderGate = func(string) {
		close(entered)
		<-release
	}
	inflightDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { inflightDone <- post(t, s.Handler(), c3Request()) }()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	// New work is already refused while the old flight runs.
	if w := post(t, s.Handler(), c3Request()); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d, want 503", w.Code)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before in-flight query finished", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	w := <-inflightDone
	if w.Code != http.StatusOK {
		t.Fatalf("in-flight query during drain = %d, want 200: %s", w.Code, w.Body.String())
	}
	if resp := decodeResponse(t, w); !resp.Found {
		t.Errorf("drained query returned found=false, want the complete answer")
	}
}

// TestDrainDeadlineCancelsFlights: when the drain context expires first,
// Shutdown reports it and the stuck flight is cancelled (503 draining for
// its clients) rather than leaked.
func TestDrainDeadlineCancelsFlights(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	// Block the flight before execution, so once released it runs under the
	// already-cancelled lifecycle context and reports cancellation.
	entered := make(chan struct{})
	release := make(chan struct{})
	s.co.leaderGate = func(string) {
		close(entered)
		<-release
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, s.Handler(), c3Request()) }()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	close(release)
	w := <-done
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned query = %d, want 503: %s", w.Code, w.Body.String())
	}
	if got := decodeError(t, w).Code; got != "draining" {
		t.Errorf("code = %q, want draining", got)
	}
}

// TestCoalescerSequentialFlights: non-overlapping identical queries do not
// share results — each runs its own flight.
func TestCoalescerSequentialFlights(t *testing.T) {
	c := newCoalescer(context.Background(), -1, nil)
	runs := 0
	run := func(context.Context) batch.Result {
		runs++
		return batch.Result{}
	}
	for i := 0; i < 3; i++ {
		if _, hit, err := c.do(context.Background(), "k", run); err != nil || hit {
			t.Fatalf("do #%d: hit=%v err=%v, want fresh flight", i, hit, err)
		}
	}
	if runs != 3 {
		t.Errorf("runs = %d, want 3 (sequential queries never coalesce)", runs)
	}
}

// TestCoalescerWaiterError pins the waiter-cancellation error class.
func TestCoalescerWaiterError(t *testing.T) {
	c := newCoalescer(context.Background(), -1, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	c.leaderGate = func(string) {
		close(started)
		<-release
	}
	go c.do(context.Background(), "k", func(context.Context) batch.Result { return batch.Result{} })
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, err := c.do(ctx, "k", func(context.Context) batch.Result {
		t.Error("waiter executed the flight body")
		return batch.Result{}
	})
	if !hit || !errors.Is(err, faults.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("hit=%v err=%v, want coalesced ErrCancelled wrapping context.Canceled", hit, err)
	}
	close(release)
}
