package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// observeFixture builds a mid-size venue and a query that exercises client
// pruning and several d_low advances, so every instrumented stage fires.
func observeFixture() (*vip.Tree, *Query) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.Options{LeafFanout: 4, NodeFanout: 3, Vivid: true})
	rng := rand.New(rand.NewSource(99))
	q := randomQuery(v, rng, 4, 5, 20)
	return tree, q
}

// TestObservedSolversMatchUnobserved: a span recorder observes the run
// without changing its answer, for every objective.
func TestObservedSolversMatchUnobserved(t *testing.T) {
	tree, q := observeFixture()
	for obj := Objective(0); obj < numObjectives; obj++ {
		o := Options{Objective: obj, K: 3}
		plain := execOf(tree, q, o)
		var rec obs.Counting
		o.Recorder = &rec
		got, err := Exec(context.Background(), tree, q, o)
		if err != nil {
			t.Fatalf("%v observed: %v", obj, err)
		}
		if !eqResult(got.MinMax, plain.MinMax) || !eqExtResult(got.Ext, plain.Ext) ||
			!eqTopK(got.TopK, plain.TopK) || !eqMulti(got.Multi, plain.Multi) {
			t.Fatalf("%v: observed %+v, unobserved %+v", obj, got, plain)
		}
		if rec.Counts.Total() == 0 {
			t.Fatalf("%v: recorder saw no span events", obj)
		}
	}
}

// TestObservedStagesCovered asserts the solver-side stages (locate,
// queue-pop, prune, answer-check) all fire on a workload with pruning.
// StageValidate belongs to the serving layer and is not expected here.
func TestObservedStagesCovered(t *testing.T) {
	tree, q := observeFixture()
	solvers := map[string]Objective{
		"efficient": ObjMinMax,
		"mindist":   ObjMinDist,
		"maxsum":    ObjMaxSum,
		"baseline":  ObjBaseline,
	}
	for name, obj := range solvers {
		t.Run(name, func(t *testing.T) {
			var rec obs.Counting
			if _, err := Exec(context.Background(), tree, q, Options{Objective: obj, Recorder: &rec}); err != nil {
				t.Fatalf("solver: %v", err)
			}
			for _, st := range []obs.Stage{obs.StageLocate, obs.StageQueuePop, obs.StagePrune, obs.StageAnswerCheck} {
				if rec.Counts[st] == 0 {
					t.Errorf("stage %s: zero events", st)
				}
			}
		})
	}
}

// TestObservedSpanMonotonic asserts spans carry monotonically non-decreasing
// elapsed times and work counters, the contract ARCHITECTURE.md §8 states.
func TestObservedSpanMonotonic(t *testing.T) {
	tree, q := observeFixture()
	var tr obs.Trace
	if _, err := Exec(context.Background(), tree, q, Options{Recorder: &tr}); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Elapsed < spans[i-1].Elapsed {
			t.Fatalf("span %d elapsed %v < previous %v", i, spans[i].Elapsed, spans[i-1].Elapsed)
		}
		if spans[i].DistanceCalcs < spans[i-1].DistanceCalcs {
			t.Fatalf("span %d DistanceCalcs went backwards: %d < %d", i, spans[i].DistanceCalcs, spans[i-1].DistanceCalcs)
		}
		if spans[i].QueuePops < spans[i-1].QueuePops {
			t.Fatalf("span %d QueuePops went backwards: %d < %d", i, spans[i].QueuePops, spans[i-1].QueuePops)
		}
		if spans[i].PrunedClients < spans[i-1].PrunedClients {
			t.Fatalf("span %d PrunedClients went backwards: %d < %d", i, spans[i].PrunedClients, spans[i-1].PrunedClients)
		}
	}
}

// TestNoopRecorderZeroAllocOverhead is the disabled-path guarantee: solving
// with a no-op recorder allocates exactly as much as solving with none.
// The CI benchmark smoke step runs this test by name.
func TestNoopRecorderZeroAllocOverhead(t *testing.T) {
	tree, q := observeFixture()
	ctx := context.Background()
	base := testing.AllocsPerRun(50, func() {
		if _, err := Exec(ctx, tree, q, Options{}); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	})
	withNop := testing.AllocsPerRun(50, func() {
		if _, err := Exec(ctx, tree, q, Options{Recorder: obs.Nop{}}); err != nil {
			t.Fatalf("Exec with obs.Nop: %v", err)
		}
	})
	if withNop > base {
		t.Fatalf("no-op recorder adds allocations: %v allocs/op with obs.Nop, %v without", withNop, base)
	}
}

func BenchmarkSolve(b *testing.B) {
	tree, q := observeFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		execOf(tree, q, Options{})
	}
}

func BenchmarkSolveObservedNop(b *testing.B) {
	tree, q := observeFixture()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(ctx, tree, q, Options{Recorder: obs.Nop{}}); err != nil {
			b.Fatal(err)
		}
	}
}
