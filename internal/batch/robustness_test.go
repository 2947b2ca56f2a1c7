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
// panic — while every other concurrent query still answers. Under -race
// this also proves the recovery path is race-clean.
func TestPanicContainment(t *testing.T) {
	tree, queries := fixture(t, 12)
	victim := queries[4].Query
	testHookRun = func(q Query) {
		if q.Query == victim {
			panic("injected solver fault")
		}
	}
	defer func() { testHookRun = nil }()

	for i, r := range executeAll(context.Background(), tree, queries, nil) {
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
}

// TestMidBatchCancellation trips the counting context partway through a
// sequential loop of Execute calls that share it: the queries before the
// trip answer, the rest report cancellation (mid-solve or before running),
// and none panics or fails with another error class.
func TestMidBatchCancellation(t *testing.T) {
	tree, queries := fixture(t, 16)
	// Count the checkpoints the whole loop polls, then trip in the middle.
	total := chaos.CountCheckpoints(func(ctx context.Context) {
		executeSeq(ctx, tree, queries, nil)
	})
	if total < len(queries) {
		t.Fatalf("the loop polled only %d checkpoints for %d queries", total, len(queries))
	}
	var answered, cancelled int
	for i, r := range executeSeq(chaos.CancelAtCheckpoint(total/2), tree, queries, nil) {
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
		t.Fatalf("mid-loop trip: answered=%d cancelled=%d, want both > 0", answered, cancelled)
	}
}

// TestValidationClassification checks that malformed bodies come back with
// ErrInvalidQuery — the typed sentinel, not a bare error — so callers can
// triage failures without string matching.
func TestValidationClassification(t *testing.T) {
	tree, queries := fixture(t, 6)
	bad := *queries[1].Query
	bad.Candidates = nil
	queries[1] = Query{Objective: core.ObjMinMax, Query: &bad}
	queries[3] = Query{Objective: core.Objective(201), Query: queries[3].Query}

	if err := Execute(context.Background(), tree, queries[1], nil).Err; !errors.Is(err, faults.ErrInvalidQuery) {
		t.Errorf("query 1: got %v, want ErrInvalidQuery", err)
	}
	if err := Execute(context.Background(), tree, queries[3], nil).Err; !errors.Is(err, faults.ErrUnknownObjective) {
		t.Errorf("query 3: got %v, want ErrUnknownObjective", err)
	}
}
