package batch

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/obs"
)

// TestMetricsConcurrentWorkers runs observed queries from GOMAXPROCS
// goroutines (under -race this doubles as the data-race check for the
// per-call trace merge) and checks the aggregates line up with a
// sequential observed loop.
func TestMetricsConcurrentWorkers(t *testing.T) {
	tree, queries := fixture(t, 40)
	m := obs.NewMetrics()
	observed := executeAll(context.Background(), tree, queries, m)

	s := m.Snapshot()
	if s.Queries != int64(len(queries)) {
		t.Fatalf("Queries = %d, want %d", s.Queries, len(queries))
	}
	if s.Errors != 0 || s.Cancellations != 0 {
		t.Fatalf("unexpected failures: errors=%d cancellations=%d", s.Errors, s.Cancellations)
	}
	// Span counts are a function of the queries alone, so the concurrent
	// merge must equal the sequential one.
	seq := obs.NewMetrics()
	executeSeq(context.Background(), tree, queries, seq)
	if s.Stages != seq.Snapshot().Stages {
		t.Fatalf("concurrent stages %v != sequential stages %v", s.Stages, seq.Snapshot().Stages)
	}
	// Every query passes validation, so the validate stage fires once per
	// query; the traversal stages fire at least once somewhere in the mix.
	if got := s.Stages[obs.StageValidate]; got != uint64(len(queries)) {
		t.Errorf("validate spans = %d, want %d", got, len(queries))
	}
	for _, st := range []obs.Stage{obs.StageLocate, obs.StageQueuePop, obs.StagePrune, obs.StageAnswerCheck} {
		if s.Stages[st] == 0 {
			t.Errorf("stage %s: zero span events", st)
		}
	}
	if s.Clients == 0 {
		t.Error("clients gauge not populated")
	}

	// A metrics-free run returns identical payloads: observation is
	// read-only with respect to the answers.
	plain := executeAll(context.Background(), tree, queries, nil)
	for i := range queries {
		if !bytes.Equal(payloadBytes(t, observed[i]), payloadBytes(t, plain[i])) {
			t.Fatalf("query %d: observed payload differs from plain payload", i)
		}
	}
}

// TestMetricsCancelledContributeNoSpans is the discard guarantee: queries
// whose context is done before they start leave no span events behind,
// while their cancellations still show up in the aggregate counts.
func TestMetricsCancelledContributeNoSpans(t *testing.T) {
	tree, queries := fixture(t, 12)
	m := obs.NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every query sees a dead context before it starts
	for i, r := range executeSeq(ctx, tree, queries, m) {
		if !errors.Is(r.Err, faults.ErrCancelled) {
			t.Fatalf("query %d: err = %v, want cancelled", i, r.Err)
		}
	}
	s := m.Snapshot()
	if s.Stages.Total() != 0 {
		t.Fatalf("metrics carry %d span events from cancelled queries (spans: %v)", s.Stages.Total(), s.Stages)
	}
	if s.Cancellations != int64(len(queries)) {
		t.Fatalf("Cancellations = %d, want %d", s.Cancellations, len(queries))
	}
	if s.Clients != 0 || s.DistanceCalcs != 0 {
		t.Fatalf("cancelled queries contributed work gauges: %+v", s)
	}
}

// TestMetricsMidBatchCancellation cancels the shared context while
// concurrent queries are in flight (via the test hook, once a few have
// started) and checks the invariant still holds: only completed queries
// contribute spans — one validate span each — and every cancellation is
// counted.
func TestMetricsMidBatchCancellation(t *testing.T) {
	tree, queries := fixture(t, 24)
	m := obs.NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	var ran int32
	var mu sync.Mutex
	testHookRun = func(Query) {
		mu.Lock()
		ran++
		n := ran
		mu.Unlock()
		if n == 8 {
			once.Do(cancel)
		}
	}
	defer func() { testHookRun = nil }()

	cancelled, completed := 0, 0
	for _, r := range executeAll(ctx, tree, queries, m) {
		if errors.Is(r.Err, faults.ErrCancelled) {
			cancelled++
		} else if r.Err == nil {
			completed++
		}
	}
	if cancelled == 0 {
		t.Skip("cancellation raced after every query completed; nothing to assert")
	}
	// Completed queries fired validate exactly once each; cancelled ones
	// must not have (mid-solve cancellations discard the whole trace).
	s := m.Snapshot()
	if got := s.Stages[obs.StageValidate]; got != uint64(completed) {
		t.Fatalf("validate spans = %d with %d completed and %d cancelled of %d: cancelled queries leaked spans",
			got, completed, cancelled, len(queries))
	}
	if s.Cancellations != int64(cancelled) {
		t.Fatalf("Cancellations = %d, results say %d", s.Cancellations, cancelled)
	}
}
