package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/chaos"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// cancelSolvers enumerates every context-aware query path — each Exec
// objective — through a uniform closure so one table drives the whole
// cancellation contract.
func cancelSolvers(t *testing.T) (map[string]func(ctx context.Context) error, *Query) {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := randomQuery(v, rand.New(rand.NewSource(11)), 4, 8, 60)
	exec := func(o Options) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := Exec(ctx, tree, q, o)
			return err
		}
	}
	return map[string]func(ctx context.Context) error{
		"efficient": exec(Options{Objective: ObjMinMax}),
		"baseline":  exec(Options{Objective: ObjBaseline}),
		"mindist":   exec(Options{Objective: ObjMinDist}),
		"maxsum":    exec(Options{Objective: ObjMaxSum}),
		"topk":      exec(Options{Objective: ObjTopK, K: 3}),
		"multi":     exec(Options{Objective: ObjMulti, K: 2}),
	}, q
}

// TestCancelAlreadyCancelled: a context cancelled before the call returns
// immediately with an error matching both the faults sentinel and the
// stdlib cause.
func TestCancelAlreadyCancelled(t *testing.T) {
	solvers, _ := cancelSolvers(t)
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := solve(ctx)
			if err == nil {
				t.Fatal("cancelled context: want error, got nil")
			}
			if !errors.Is(err, faults.ErrCancelled) {
				t.Errorf("errors.Is(err, faults.ErrCancelled) = false for %v", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
			}
		})
	}
}

// TestCancelMidSolve sweeps cancellation across every checkpoint each
// solver passes through: first, an early, a middle, and a late one. At
// every trip point the solver must return a cancellation error rather
// than an answer, and must never panic.
func TestCancelMidSolve(t *testing.T) {
	solvers, _ := cancelSolvers(t)
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			total := chaos.CountCheckpoints(func(ctx context.Context) {
				if err := solve(ctx); err != nil {
					t.Fatalf("non-tripping counting context errored: %v", err)
				}
			})
			if total < 2 {
				t.Fatalf("solver polled only %d checkpoints; cancellation would be too coarse", total)
			}
			trips := []int{1, 2, total / 4, total / 2, total - 1, total}
			for _, n := range trips {
				if n < 1 {
					continue
				}
				c := chaos.CancelAtCheckpoint(n)
				err := solve(c)
				if err == nil {
					t.Fatalf("trip at checkpoint %d/%d: want error, got answer", n, total)
				}
				if !errors.Is(err, faults.ErrCancelled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("trip at checkpoint %d/%d: error %v does not match taxonomy", n, total, err)
				}
			}
		})
	}
}

// TestContextVariantsMatchPlain: a live cancellable context arms every
// checkpoint, yet a run it never cancels must return exactly the payload
// of the non-cancellable run, for every objective.
func TestContextVariantsMatchPlain(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := randomQuery(v, rand.New(rand.NewSource(23)), 3, 9, 45)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()

	for obj := Objective(0); obj < numObjectives; obj++ {
		o := Options{Objective: obj, K: 4}
		plain := execOf(tree, q, o)
		got, err := Exec(live, tree, q, o)
		if err != nil {
			t.Fatalf("%v: live context errored: %v", obj, err)
		}
		if !eqResult(got.MinMax, plain.MinMax) || !eqExtResult(got.Ext, plain.Ext) ||
			!eqTopK(got.TopK, plain.TopK) || !eqMulti(got.Multi, plain.Multi) {
			t.Errorf("%v: live context %+v, background %+v", obj, got, plain)
		}
	}
}

// TestCancelNilContext: a nil context must behave like background, not
// panic.
func TestCancelNilContext(t *testing.T) {
	solvers, _ := cancelSolvers(t)
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			var nilCtx context.Context
			if err := solve(nilCtx); err != nil {
				t.Fatalf("nil context: unexpected error %v", err)
			}
		})
	}
}

// TestSessionCancellation covers the warm-explorer path separately; its
// state reuse must not bypass the checkpoints.
func TestSessionCancellation(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := randomQuery(v, rand.New(rand.NewSource(31)), 3, 7, 50)
	s := NewSession(tree)
	if _, err := s.Exec(context.Background(), q, Options{}); err != nil {
		t.Fatalf("warm-up solve: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Exec(ctx, q, Options{}); !errors.Is(err, faults.ErrCancelled) {
		t.Fatalf("warm session with cancelled context: got %v, want ErrCancelled", err)
	}
	// The session must remain usable after a cancelled solve.
	r, err := s.Exec(context.Background(), q, Options{})
	if err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	if cold := execOf(tree, q, Options{}).MinMax; r.MinMax != cold {
		t.Errorf("post-cancel session result %+v differs from cold solve %+v", r, cold)
	}
}
