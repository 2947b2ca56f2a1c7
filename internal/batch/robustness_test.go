package batch

import (
	"context"
	"errors"
	"testing"

	"github.com/indoorspatial/ifls/internal/chaos"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
)

// TestPanicContainment injects a panic into one query's execution (via the
// test hook, since validation blocks every realistic panic source) and
// checks that the panicking query alone fails — classified as a solver
// panic — while every other query still answers. Run under -race this also
// proves the recovery path is race-clean.
func TestPanicContainment(t *testing.T) {
	tree, queries := fixture(t, 12)
	victim := queries[4].Query
	testHookRun = func(q Query) {
		if q.Query == victim {
			panic("injected solver fault")
		}
	}
	defer func() { testHookRun = nil }()

	rep, err := Run(context.Background(), tree, queries, Options{Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range rep.Results {
		if i == 4 {
			if !errors.Is(r.Err, faults.ErrSolverPanic) {
				t.Errorf("query 4: got %v, want ErrSolverPanic", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("query %d: unexpected error %v", i, r.Err)
		}
	}
	if rep.Counters.Errors != 1 {
		t.Errorf("Errors = %d, want 1", rep.Counters.Errors)
	}
}

// TestMidBatchCancellation trips the counting context partway through the
// batch: some queries answer, the rest report cancellation, and none
// panic. Queries cancelled mid-run or pre-run are excluded from the
// Queries counter but included in Errors.
func TestMidBatchCancellation(t *testing.T) {
	tree, queries := fixture(t, 16)
	// Count the checkpoints one full batch polls, then trip in the middle.
	total := chaos.CountCheckpoints(func(ctx context.Context) {
		if _, err := Run(ctx, tree, queries, Options{Workers: 1}); err != nil {
			t.Fatalf("counting run: %v", err)
		}
	})
	if total < len(queries) {
		t.Fatalf("batch polled only %d checkpoints for %d queries", total, len(queries))
	}
	c := chaos.CancelAtCheckpoint(total / 2)
	rep, err := Run(c, tree, queries, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var answered, cancelled int
	for i, r := range rep.Results {
		switch {
		case r.Err == nil:
			answered++
		case errors.Is(r.Err, faults.ErrCancelled):
			cancelled++
		default:
			t.Errorf("query %d: unexpected error class %v", i, r.Err)
		}
	}
	if answered == 0 || cancelled == 0 {
		t.Fatalf("mid-batch trip: answered=%d cancelled=%d, want both > 0", answered, cancelled)
	}
	if rep.Counters.Errors != cancelled {
		t.Errorf("Errors = %d, want %d", rep.Counters.Errors, cancelled)
	}
	if rep.Counters.Queries != answered {
		t.Errorf("Queries = %d, want %d (cancelled excluded)", rep.Counters.Queries, answered)
	}
}

// TestValidationClassification checks that malformed bodies come back with
// ErrInvalidQuery — the typed sentinel, not a bare error — so batch
// consumers can triage failures without string matching.
func TestValidationClassification(t *testing.T) {
	tree, queries := fixture(t, 6)
	bad := *queries[1].Query
	bad.Candidates = nil
	queries[1] = Query{Objective: core.ObjMinMax, Query: &bad}
	queries[3] = Query{Objective: core.Objective(201), Query: queries[3].Query}

	rep, err := Run(context.Background(), tree, queries, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(rep.Results[1].Err, faults.ErrInvalidQuery) {
		t.Errorf("query 1: got %v, want ErrInvalidQuery", rep.Results[1].Err)
	}
	if !errors.Is(rep.Results[3].Err, faults.ErrUnknownObjective) {
		t.Errorf("query 3: got %v, want ErrUnknownObjective", rep.Results[3].Err)
	}
}
