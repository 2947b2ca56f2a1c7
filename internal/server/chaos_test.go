package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/chaos"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/leakcheck"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// The chaos suite drives the server through a seeded fault injector —
// latency, injected errors, client hang-ups, short deadlines — and asserts
// the resilience contract: every request reaches a terminal status from
// the documented table, counters only grow, flights never leak goroutines,
// and the drain still completes. Run under -race these tests double as a
// synchronization audit of the deadline/reap machinery.

// terminalChaosStatuses are the statuses a request may legally end with
// under query-path chaos (no drain, no admission pressure beyond the
// configured limit).
var terminalChaosStatuses = map[int]bool{
	http.StatusOK:                  true,
	StatusClientClosedRequest:      true, // client hang-up
	http.StatusGatewayTimeout:      true, // deadline
	http.StatusInternalServerError: true, // injected fault (classified internal)
	http.StatusTooManyRequests:     true, // admission shed
}

// TestChaosQueryPath: a concurrent wave of queries — coalescing and
// distinct, bounded and unbounded, some abandoned mid-flight — against an
// injector mixing latency and errors. Every request must terminate with a
// documented status, the counter set must be monotone, and after a drain
// no goroutine may survive.
func TestChaosQueryPath(t *testing.T) {
	defer leakcheck.Check(t)()
	m := obs.NewMetrics()
	inj := chaos.New(chaos.Config{
		Seed:        20260808,
		LatencyProb: 0.4, MaxLatency: 15 * time.Millisecond,
		ErrorProb: 0.2,
	})
	s, _ := newTestServer(t, Options{
		Metrics:      m,
		QueryTimeout: 60 * time.Millisecond,
		AbandonGrace: 5 * time.Millisecond,
		Hooks:        Hooks{BeforeExecute: inj.BeforeExecute},
	})

	const (
		workers = 8
		perW    = 25
	)
	var wg sync.WaitGroup
	var badStatus atomic.Int64
	statuses := make([]int, workers*perW)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				req := c3Request()
				switch rng.Intn(4) {
				case 0: // distinct query per worker: no coalescing
					req.Clients[0].X = 5 + float64(w)/10
				case 1: // aggressive per-request deadline
					req.TimeoutMS = 1 + int64(rng.Intn(5))
				}
				abandon := rng.Intn(5) == 0
				ctx, cancel := context.WithCancel(context.Background())
				if abandon {
					time.AfterFunc(time.Duration(rng.Intn(8))*time.Millisecond, cancel)
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					cancel()
					return
				}
				r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, r)
				cancel()
				statuses[w*perW+i] = rec.Code
				if !terminalChaosStatuses[rec.Code] {
					badStatus.Add(1)
					t.Errorf("request ended with undocumented status %d: %s", rec.Code, rec.Body.String())
				}
				if rec.Code != http.StatusOK {
					if decodeError(t, rec).Code == "" {
						t.Errorf("status %d carried no machine-readable code", rec.Code)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Counters: consistent with the wave, and monotone across a second
	// snapshot (nothing decays or resets).
	snap := m.Snapshot()
	total := int64(workers * perW)
	if snap.CoalesceHits+snap.CoalesceMisses > total {
		t.Errorf("hits+misses = %d, more than the %d requests sent", snap.CoalesceHits+snap.CoalesceMisses, total)
	}
	if snap.QueriesTimedOut < 0 || snap.FlightsReaped < 0 {
		t.Errorf("negative counters: %+v", snap)
	}
	later := m.Snapshot()
	if later.QueriesTimedOut < snap.QueriesTimedOut || later.FlightsReaped < snap.FlightsReaped ||
		later.CoalesceHits < snap.CoalesceHits || later.CoalesceMisses < snap.CoalesceMisses {
		t.Errorf("counters moved backwards: %+v then %+v", snap, later)
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d after the wave, want 0", snap.InFlight)
	}
	if st := inj.Stats(); st.Errors == 0 && st.Latencies == 0 {
		t.Errorf("the injector never fired (stats %+v); the chaos run tested nothing", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after chaos wave: %v", err)
	}
}

// TestChaosBuildFailureDoesNotPoison: an injected build failure fails the
// triggering request with a 5xx, but the venue stays buildable — the next
// query (with the fault gone) builds and answers.
func TestChaosBuildFailureDoesNotPoison(t *testing.T) {
	defer leakcheck.Check(t)()
	var inj atomic.Pointer[chaos.Injector]
	inj.Store(chaos.New(chaos.Config{Seed: 1, BuildFailProb: 1}))
	v := testvenue.Corridor3()
	reg := NewRegistry()
	err := reg.AddLazy("c3", v, func(ctx context.Context) (*vip.Tree, error) {
		return vip.BuildContext(ctx, v, vip.DefaultOptions())
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Options{Hooks: Hooks{
		BeforeBuild: func(ctx context.Context, venue string) error {
			return inj.Load().BeforeBuild(ctx, venue)
		},
	}})

	w := post(t, s.Handler(), c3Request())
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("injected build failure status = %d, want 500: %s", w.Code, w.Body.String())
	}
	if ready, buildErr := reg.lookup("c3").state(); ready || buildErr != nil {
		t.Fatalf("injected failure poisoned the venue: ready=%v err=%v", ready, buildErr)
	}

	// Fault lifted: the same venue builds and serves.
	inj.Store(chaos.New(chaos.Config{}))
	w = post(t, s.Handler(), c3Request())
	if w.Code != http.StatusOK {
		t.Fatalf("post-chaos query status = %d, want 200: %s", w.Code, w.Body.String())
	}
	if ready, _ := reg.lookup("c3").state(); !ready {
		t.Error("venue not ready after a successful post-chaos build")
	}
}

// TestChaosSlowBuildHitsDeadline: a build delayed past the request's
// deadline terminates that request with 504 — the slow build surfaces as
// the latency failure it is, not a hang.
func TestChaosSlowBuildHitsDeadline(t *testing.T) {
	defer leakcheck.Check(t)()
	inj := chaos.New(chaos.Config{Seed: 1, SlowBuildProb: 1, MaxBuildDelay: time.Hour})
	v := testvenue.Corridor3()
	reg := NewRegistry()
	err := reg.AddLazy("c3", v, func(ctx context.Context) (*vip.Tree, error) {
		return vip.BuildContext(ctx, v, vip.DefaultOptions())
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Options{
		QueryTimeout: 20 * time.Millisecond,
		Hooks:        Hooks{BeforeBuild: inj.BeforeBuild},
	})
	w := post(t, s.Handler(), c3Request())
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow build status = %d, want 504: %s", w.Code, w.Body.String())
	}
	if got := decodeError(t, w).Code; got != "deadline_exceeded" {
		t.Errorf("code = %q, want deadline_exceeded", got)
	}
}

// TestChaosCorruptRead: an index read through a bit-flipping transport is
// detected at load — classified ErrCorruptIndex, never a partial tree and
// never a panic.
func TestChaosCorruptRead(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	var buf bytes.Buffer
	if err := tree.SavePaged(&buf, vip.PagedSaveOptions{}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		r := chaos.CorruptReader(bytes.NewReader(buf.Bytes()), seed, 256)
		loaded, err := vip.Load(r, v)
		if loaded != nil {
			t.Fatalf("seed %d: Load returned a tree from a corrupted stream (err=%v)", seed, err)
		}
		if !errors.Is(err, faults.ErrCorruptIndex) {
			t.Errorf("seed %d: err = %v, want ErrCorruptIndex", seed, err)
		}
	}
}

// TestDrainLeakCheck: the pre-existing drain path, wrapped in the
// goroutine leak check — a drained server must unwind every flight
// watcher and reap timer.
func TestDrainLeakCheck(t *testing.T) {
	defer leakcheck.Check(t)()
	m := obs.NewMetrics()
	s, _ := newTestServer(t, Options{Metrics: m})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := c3Request()
			req.Clients[0].X = 5 + float64(i)/100 // unique: all miss
			if w := post(t, s.Handler(), req); w.Code != http.StatusOK {
				t.Errorf("query %d: status %d", i, w.Code)
			}
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if w := post(t, s.Handler(), c3Request()); w.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain query status = %d, want 503", w.Code)
	}
}
