package ifls_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

func robustnessFixture(t *testing.T) (*ifls.Venue, *ifls.Index, *ifls.Query) {
	t.Helper()
	v, err := ifls.SampleVenue("CPH")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ifls.RandomQuery(v, 5, 10, 80, ifls.Uniform, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	return v, ix, q
}

// TestContextSolversCancel: every objective, through Index.Query and
// Session.Query, must stop on a cancelled context with an error that
// matches both the package sentinel and the stdlib cause, so callers can
// classify with either vocabulary.
func TestContextSolversCancel(t *testing.T) {
	_, ix, q := robustnessFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	query := func(o ifls.QueryOptions) func() error {
		return func() error { _, err := ix.Query(ctx, q, o); return err }
	}
	calls := map[string]func() error{
		"SolveContext":         query(ifls.QueryOptions{}),
		"SolveBaselineContext": query(ifls.QueryOptions{Objective: ifls.Baseline}),
		"SolveMinDistContext":  query(ifls.QueryOptions{Objective: ifls.MinDist}),
		"SolveMaxSumContext":   query(ifls.QueryOptions{Objective: ifls.MaxSum}),
		"SolveTopKContext":     query(ifls.QueryOptions{Objective: ifls.TopK, K: 3}),
		"SolveMultiContext":    query(ifls.QueryOptions{Objective: ifls.Multi, K: 2}),
		"QueryAt":              func() error { _, err := ix.QueryAt(ctx, ix.NewTimetable(), 0, q); return err },
		"Session.SolveContext": func() error { _, err := ix.NewSession().Query(ctx, q, ifls.QueryOptions{}); return err },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			err := call()
			if err == nil {
				t.Fatal("cancelled context: want error, got nil")
			}
			if !errors.Is(err, ifls.ErrCancelled) {
				t.Errorf("errors.Is(err, ifls.ErrCancelled) = false for %v", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
			}
		})
	}
}

// TestNewIndexContextCancel: index construction is the long pole (the
// all-pairs matrix fill); it must honor an already-cancelled context.
func TestNewIndexContextCancel(t *testing.T) {
	v, _, _ := robustnessFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ifls.NewIndexContext(ctx, v, ifls.IndexOptions{}); !errors.Is(err, ifls.ErrCancelled) {
		t.Fatalf("NewIndexContext(cancelled): got %v, want ErrCancelled", err)
	}
	// And a background context must still build normally.
	if _, err := ifls.NewIndexContext(context.Background(), v, ifls.IndexOptions{}); err != nil {
		t.Fatalf("NewIndexContext(background): %v", err)
	}
}

// TestContextWrappersMatchPlain pins the public query paths to one answer:
// for every objective, Index.Query, the same query on a WithMetrics copy,
// and Session.Query agree, and a live (never cancelled) context changes
// nothing.
func TestContextWrappersMatchPlain(t *testing.T) {
	_, ix, q := robustnessFixture(t)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	observed := ix.WithMetrics(ifls.NewMetrics())
	sess := ix.NewSession()

	for _, obj := range []ifls.Objective{ifls.MinMax, ifls.Baseline, ifls.MinDist, ifls.MaxSum, ifls.TopK, ifls.Multi} {
		o := ifls.QueryOptions{Objective: obj, K: 3}
		want := answer(t, ix, q, o)
		got, err := observed.Query(live, q, o)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: observed, live ctx = (%+v, %v), want %+v", obj, got, err, want)
		}
		// A Session charges its persistent explorer cache to the memory
		// metric, so compare answers, not RetainedBytes.
		sa := sessionAnswer(t, sess, q, o)
		sa.MinMax.Stats.RetainedBytes = want.MinMax.Stats.RetainedBytes
		sa.Ext.Stats.RetainedBytes = want.Ext.Stats.RetainedBytes
		sa.Multi.Stats.RetainedBytes = want.Multi.Stats.RetainedBytes
		if !reflect.DeepEqual(sa, want) {
			t.Errorf("%v: session %+v, want %+v", obj, sa, want)
		}
	}
}

// TestInvalidQueriesReturnTypedErrors drives the validation taxonomy
// through the public API: each class of malformed query must surface
// ErrInvalidQuery (never a panic) from every query path.
func TestInvalidQueriesReturnTypedErrors(t *testing.T) {
	v, ix, good := robustnessFixture(t)
	np := ifls.PartitionID(len(v.Partitions))
	cases := map[string]*ifls.Query{
		"nil query":            nil,
		"unknown existing":     {Existing: []ifls.PartitionID{np + 5}, Candidates: good.Candidates, Clients: good.Clients},
		"unknown candidate":    {Existing: good.Existing, Candidates: []ifls.PartitionID{-2}, Clients: good.Clients},
		"no candidates":        {Existing: good.Existing, Clients: good.Clients},
		"client off partition": {Existing: good.Existing, Candidates: good.Candidates, Clients: []ifls.Client{{ID: 1, Loc: ifls.Pt(-1e6, -1e6, 0), Part: 0}}},
		"client NaN":           {Existing: good.Existing, Candidates: good.Candidates, Clients: []ifls.Client{{ID: 1, Loc: ifls.Pt(math.NaN(), 0, 0), Part: 0}}},
		"client bad partition": {Existing: good.Existing, Candidates: good.Candidates, Clients: []ifls.Client{{ID: 1, Loc: ifls.Pt(1, 1, 0), Part: np + 9}}},
	}
	for name, q := range cases {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if _, err := ix.Query(ctx, q, ifls.QueryOptions{}); !errors.Is(err, ifls.ErrInvalidQuery) {
				t.Errorf("Index.Query: got %v, want ErrInvalidQuery", err)
			}
			if _, err := ix.NewSession().Query(ctx, q, ifls.QueryOptions{}); !errors.Is(err, ifls.ErrInvalidQuery) {
				t.Errorf("Session.Query: got %v, want ErrInvalidQuery", err)
			}
			if _, err := ix.QueryAt(ctx, ix.NewTimetable(), 0, q); !errors.Is(err, ifls.ErrInvalidQuery) {
				t.Errorf("QueryAt: got %v, want ErrInvalidQuery", err)
			}
		})
	}
}

// TestErrorSentinelsAreFaultsSentinels: the re-exported errors must be the
// same values the internal packages wrap, so errors.Is works across the
// boundary in both directions.
func TestErrorSentinelsAreFaultsSentinels(t *testing.T) {
	_, ix, _ := robustnessFixture(t)
	_, err := ix.Query(context.Background(), nil, ifls.QueryOptions{})
	if !errors.Is(err, ifls.ErrInvalidQuery) {
		t.Fatalf("nil query error %v does not match re-exported sentinel", err)
	}
	if ifls.ErrCancelled.Error() == "" || ifls.ErrSolverPanic.Error() == "" {
		t.Fatal("sentinels must carry messages")
	}
}

// TestWorkloadErrorsSurface: the workload generator reports bad parameters
// as ErrInvalidWorkload through the public RandomQuery path.
func TestWorkloadErrorsSurface(t *testing.T) {
	v, _, _ := robustnessFixture(t)
	_, err := ifls.RandomQuery(v, 1<<30, 10, 5, ifls.Uniform, 0, 1)
	if !errors.Is(err, ifls.ErrInvalidWorkload) {
		t.Fatalf("oversized facility request: got %v, want ErrInvalidWorkload", err)
	}
	_, err = ifls.RandomQuery(v, 3, 5, 10, ifls.Distribution(99), 0, 1)
	if !errors.Is(err, ifls.ErrInvalidWorkload) {
		t.Fatalf("unknown distribution: got %v, want ErrInvalidWorkload", err)
	}
}

// TestMalformedVenueTaxonomy: builder failures classify as
// ErrMalformedVenue through the public Builder alias.
func TestMalformedVenueTaxonomy(t *testing.T) {
	b := ifls.NewBuilder("broken")
	b.AddRoom(ifls.R(0, 0, 10, 10, 0), "island", "") // no doors, disconnected
	if _, err := b.Build(); !errors.Is(err, ifls.ErrMalformedVenue) {
		t.Fatalf("Build: got %v, want ErrMalformedVenue", err)
	}
}
