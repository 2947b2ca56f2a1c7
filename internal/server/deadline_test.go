package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/obs"
)

// TestQueryTimeout504: a query that outlives the configured server-side
// deadline terminates with 504 deadline_exceeded and increments the
// queries_timed_out counter.
func TestQueryTimeout504(t *testing.T) {
	t.Run("coalesced", func(t *testing.T) {
		m := obs.NewMetrics()
		s, _ := newTestServer(t, Options{
			Metrics:      m,
			QueryTimeout: 20 * time.Millisecond,
			Hooks: Hooks{BeforeExecute: func(ctx context.Context, _ string) error {
				<-ctx.Done() // a traversal that never converges in budget
				return ctx.Err()
			}},
		})
		w := post(t, s.Handler(), c3Request())
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504: %s", w.Code, w.Body.String())
		}
		if got := decodeError(t, w).Code; got != "deadline_exceeded" {
			t.Errorf("code = %q, want deadline_exceeded", got)
		}
		if snap := m.Snapshot(); snap.QueriesTimedOut != 1 {
			t.Errorf("queries_timed_out = %d, want 1", snap.QueriesTimedOut)
		}
	})
}

// TestTimeoutOverrideClamp pins queryDeadline's clamping: timeout_ms can
// shorten the server-side budget but never extend it, and zero means "use
// the server's".
func TestTimeoutOverrideClamp(t *testing.T) {
	s, _ := newTestServer(t, Options{QueryTimeout: time.Second})
	if d := s.queryDeadline(0); d != time.Second {
		t.Errorf("no override: deadline = %v, want 1s", d)
	}
	if d := s.queryDeadline(50); d != 50*time.Millisecond {
		t.Errorf("shorter override: deadline = %v, want 50ms", d)
	}
	if d := s.queryDeadline(5000); d != time.Second {
		t.Errorf("longer override must clamp to the server timeout, got %v", d)
	}
	unbounded, _ := newTestServer(t, Options{})
	if d := unbounded.queryDeadline(0); d != 0 {
		t.Errorf("no timeout anywhere: deadline = %v, want 0 (unbounded)", d)
	}
	if d := unbounded.queryDeadline(75); d != 75*time.Millisecond {
		t.Errorf("override without a server timeout: deadline = %v, want 75ms", d)
	}
}

// TestNegativeTimeoutRejected: a negative timeout_ms is a malformed
// request, rejected up front with 400 invalid_options.
func TestNegativeTimeoutRejected(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	req := c3Request()
	req.TimeoutMS = -5
	w := post(t, s.Handler(), req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", w.Code, w.Body.String())
	}
	if got := decodeError(t, w).Code; got != "invalid_options" {
		t.Errorf("code = %q, want invalid_options", got)
	}
}

// TestRequestTimeoutMS: the per-request override enforces a deadline even
// when the server has no QueryTimeout configured.
func TestRequestTimeoutMS(t *testing.T) {
	m := obs.NewMetrics()
	s, _ := newTestServer(t, Options{
		Metrics: m,
		Hooks: Hooks{BeforeExecute: func(ctx context.Context, _ string) error {
			<-ctx.Done()
			return ctx.Err()
		}},
	})
	req := c3Request()
	req.TimeoutMS = 20
	w := post(t, s.Handler(), req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", w.Code, w.Body.String())
	}
	if snap := m.Snapshot(); snap.QueriesTimedOut != 1 {
		t.Errorf("queries_timed_out = %d, want 1", snap.QueriesTimedOut)
	}
}

// TestFlightCarriesMaxDeadline: a coalesced flight runs until the MAX
// deadline across its participants. A leader with a short budget joined by
// an unbounded waiter keeps running past the leader's deadline and delivers
// the complete answer to everyone.
func TestFlightCarriesMaxDeadline(t *testing.T) {
	s, _ := newTestServer(t, Options{
		Hooks: Hooks{BeforeExecute: func(ctx context.Context, _ string) error {
			// Three leader-deadlines of work: if the flight still carried the
			// leader's 100ms budget, this would be cut short.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(300 * time.Millisecond):
				return nil
			}
		}},
	})
	s.co.grace = time.Hour // isolate deadline behavior from reaping
	key := queryKey("c3", wireQuery(c3Request()))
	var gateOnce sync.Once
	registered := make(chan struct{})
	release := make(chan struct{})
	s.co.leaderGate = func(string) {
		gateOnce.Do(func() { close(registered) })
		<-release
	}

	// The bounded request must own the flight, so start it alone and wait
	// for its flight to register before the unbounded waiter arrives.
	leaderReq := c3Request()
	leaderReq.TimeoutMS = 100
	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- post(t, s.Handler(), leaderReq) }()
	<-registered

	waiterDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiterDone <- post(t, s.Handler(), c3Request()) }()
	for s.co.participants(key) < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	// The unbounded waiter lifted the flight deadline, so both clients get
	// the full answer — including the leader, whose own budget expired while
	// the shared work ran.
	for name, ch := range map[string]chan *httptest.ResponseRecorder{"leader": leaderDone, "waiter": waiterDone} {
		w := <-ch
		if w.Code != http.StatusOK {
			t.Fatalf("%s status = %d, want 200: %s", name, w.Code, w.Body.String())
		}
		if resp := decodeResponse(t, w); !resp.Found {
			t.Errorf("%s got found=false, want a complete answer", name)
		}
	}
}

// TestAbandonedFlightReaped: when every participant of a flight hangs up,
// the flight is cancelled after the grace period instead of running to
// completion, and the reap is counted.
func TestAbandonedFlightReaped(t *testing.T) {
	m := obs.NewMetrics()
	entered := make(chan struct{})
	s, _ := newTestServer(t, Options{
		Metrics: m,
		Hooks: Hooks{BeforeExecute: func(ctx context.Context, _ string) error {
			close(entered)
			<-ctx.Done() // run until the reaper cancels the flight
			return ctx.Err()
		}},
	})
	s.co.grace = 5 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	body, err := json.Marshal(c3Request())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		done <- w
	}()

	<-entered // the flight is executing; now its only participant departs
	cancel()
	w := <-done
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body.String())
	}
	if snap := m.Snapshot(); snap.FlightsReaped != 1 {
		t.Errorf("flights_reaped = %d, want 1", snap.FlightsReaped)
	}
}

// TestRejoinDisarmsReap: a retry that lands on an abandoned flight inside
// the grace window adopts it — the reap timer is disarmed and the retry
// gets the complete answer off the rescued flight.
func TestRejoinDisarmsReap(t *testing.T) {
	m := obs.NewMetrics()
	var enterOnce sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	s, _ := newTestServer(t, Options{
		Metrics: m,
		Hooks: Hooks{BeforeExecute: func(ctx context.Context, _ string) error {
			enterOnce.Do(func() { close(entered) })
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-release:
				return nil
			}
		}},
	})
	s.co.grace = time.Hour // the reap must be disarmed, not merely slow
	key := queryKey("c3", wireQuery(c3Request()))

	ctx, cancel := context.WithCancel(context.Background())
	body, err := json.Marshal(c3Request())
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		firstDone <- w
	}()
	<-entered

	// The leader goroutine is executing the flight; grab the flight, hang up
	// the only participant, and wait until the grace timer is armed.
	s.co.mu.Lock()
	fl := s.co.flights[key]
	s.co.mu.Unlock()
	if fl == nil {
		t.Fatal("flight not registered")
	}
	cancel()
	for {
		fl.mu.Lock()
		armed := fl.reapT != nil
		fl.mu.Unlock()
		if armed {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// The retry joins the abandoned flight inside the grace window.
	retryDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { retryDone <- post(t, s.Handler(), c3Request()) }()
	for s.co.participants(key) < 1 {
		time.Sleep(time.Millisecond)
	}
	fl.mu.Lock()
	stillArmed := fl.reapT != nil
	fl.mu.Unlock()
	if stillArmed {
		t.Error("reap timer still armed after a participant rejoined")
	}
	close(release)
	w := <-retryDone
	if w.Code != http.StatusOK {
		t.Fatalf("retry status = %d, want 200: %s", w.Code, w.Body.String())
	}
	if resp := decodeResponse(t, w); !resp.Coalesced {
		t.Errorf("retry did not coalesce onto the abandoned flight")
	}
	// The leader delivers the rescued answer too, albeit to a dead
	// connection.
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Errorf("leader status = %d, want 200 (flight rescued)", w.Code)
	}
	if snap := m.Snapshot(); snap.FlightsReaped != 0 {
		t.Errorf("flights_reaped = %d, want 0 (the rejoin disarmed the reap)", snap.FlightsReaped)
	}
}

// TestDrainingRetryAfter: 503 draining responses carry the fixed
// Retry-After of one second.
func TestDrainingRetryAfter(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := post(t, s.Handler(), c3Request())
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
}
