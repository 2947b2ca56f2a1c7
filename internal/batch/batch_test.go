package batch

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// fixture builds a venue, its tree, and a mixed-objective query set covering
// all four paper objectives plus top-k and multi.
func fixture(t *testing.T, nQueries int) (*vip.Tree, []Query) {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := workload.NewGenerator(v)
	objectives := []core.Objective{core.ObjMinMax, core.ObjBaseline, core.ObjMinDist, core.ObjMaxSum, core.ObjTopK, core.ObjMulti}
	queries := make([]Query, nQueries)
	for i := range queries {
		rng := rand.New(rand.NewSource(int64(i) * 7919))
		q, err := g.Query(3, 5, 40, workload.Uniform, 0.5, rng)
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		queries[i] = Query{Objective: objectives[i%len(objectives)], K: 3, Query: q}
	}
	return tree, queries
}

// executeSeq answers the queries in a sequential loop of Execute calls.
func executeSeq(ctx context.Context, tree *vip.Tree, queries []Query, m *obs.Metrics) []Result {
	results := make([]Result, len(queries))
	for i, q := range queries {
		results[i] = Execute(ctx, tree, q, m)
	}
	return results
}

// executeAll answers the queries from runtime.GOMAXPROCS(0) goroutines, each
// calling Execute on the indexes it claims from a shared counter, the way
// concurrent requests reach the daemon. results[i] answers queries[i].
func executeAll(ctx context.Context, tree *vip.Tree, queries []Query, m *obs.Metrics) []Result {
	results := make([]Result, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
				results[i] = Execute(ctx, tree, queries[i], m)
			}
		}()
	}
	wg.Wait()
	return results
}

// payloadBytes gob-encodes a result's answer payload (everything except
// Err and Elapsed) for byte-level comparison.
func payloadBytes(t *testing.T, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.ExecResult); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSequential is the core exactness guarantee: Execute
// called from GOMAXPROCS goroutines on one shared tree returns
// byte-identical results, work counters included, query by query, to a
// sequential loop, across all objectives.
func TestParallelMatchesSequential(t *testing.T) {
	tree, queries := fixture(t, 30)
	seq := executeSeq(context.Background(), tree, queries, nil)
	par := executeAll(context.Background(), tree, queries, nil)
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("query %d: unexpected errors %v / %v", i, seq[i].Err, par[i].Err)
		}
		if !bytes.Equal(payloadBytes(t, seq[i]), payloadBytes(t, par[i])) {
			t.Errorf("query %d (%s): concurrent result differs from sequential", i, queries[i].Objective)
		}
	}
}

// TestErrorIsolation checks that malformed queries fail alone: the other
// concurrent queries still answer.
func TestErrorIsolation(t *testing.T) {
	tree, queries := fixture(t, 10)
	queries[2] = Query{Objective: core.Objective(200), Query: queries[2].Query}
	queries[5] = Query{Objective: core.ObjMinMax} // nil body
	// Out-of-range client partition: validation rejects it into the
	// query's own error.
	bad := *queries[7].Query
	badClients := append([]core.Client(nil), bad.Clients...)
	badClients[0].Part = 10_000
	bad.Clients = badClients
	queries[7] = Query{Objective: core.ObjMinMax, Query: &bad}

	for i, r := range executeAll(context.Background(), tree, queries, nil) {
		switch i {
		case 2, 5, 7:
			if r.Err == nil {
				t.Errorf("query %d: want error, got none", i)
			}
		default:
			if r.Err != nil {
				t.Errorf("query %d: unexpected error %v", i, r.Err)
			}
		}
	}
}

// TestCancellation checks that a context already done stops the query
// before it runs: each Result records ErrCancelled wrapping ctx.Err, with
// zero elapsed time, and no query reaches the solver.
func TestCancellation(t *testing.T) {
	tree, queries := fixture(t, 12)
	var ran atomic.Int32
	testHookRun = func(Query) { ran.Add(1) }
	defer func() { testHookRun = nil }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range executeAll(ctx, tree, queries, nil) {
		if !errors.Is(r.Err, faults.ErrCancelled) || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("query %d: err = %v, want ErrCancelled wrapping context.Canceled", i, r.Err)
		}
		if r.Elapsed != 0 {
			t.Errorf("query %d: cancelled before running but Elapsed = %v", i, r.Elapsed)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d queries ran on a cancelled context, want 0", n)
	}
}

// TestNilTree checks that a nil tree is an options error, not a panic.
func TestNilTree(t *testing.T) {
	_, queries := fixture(t, 1)
	if r := Execute(context.Background(), nil, queries[0], nil); !errors.Is(r.Err, faults.ErrInvalidOptions) {
		t.Fatalf("Execute(nil tree): err = %v, want ErrInvalidOptions", r.Err)
	}
}
