package batch

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// fixture builds a venue, its tree, and a mixed-objective batch covering
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

// TestParallelMatchesSequential is the core exactness guarantee: a batch
// run with many workers returns byte-identical results, query by query, to
// the sequential run, across all objectives.
func TestParallelMatchesSequential(t *testing.T) {
	tree, queries := fixture(t, 30)
	seq, err := Run(context.Background(), tree, queries, Options{Workers: 1})
	if err != nil {
		t.Fatalf("sequential Run: %v", err)
	}
	for _, workers := range []int{0, 2, 5} {
		par, err := Run(context.Background(), tree, queries, Options{Workers: workers})
		if err != nil {
			t.Fatalf("parallel Run(workers=%d): %v", workers, err)
		}
		if len(par.Results) != len(seq.Results) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par.Results), len(seq.Results))
		}
		for i := range seq.Results {
			if seq.Results[i].Err != nil || par.Results[i].Err != nil {
				t.Fatalf("workers=%d query %d: unexpected errors %v / %v",
					workers, i, seq.Results[i].Err, par.Results[i].Err)
			}
			if !bytes.Equal(payloadBytes(t, seq.Results[i]), payloadBytes(t, par.Results[i])) {
				t.Errorf("workers=%d: query %d (%s) differs from sequential run",
					workers, i, queries[i].Objective)
			}
		}
		// Work counters are sums over per-query stats, so they must
		// agree too (Wall and Elapsed are the only timing-dependent
		// fields).
		sc, pc := seq.Counters, par.Counters
		sc.Wall, pc.Wall = 0, 0
		if sc != pc {
			t.Errorf("workers=%d: counters %+v, want %+v", workers, pc, sc)
		}
	}
}

// TestErrorIsolation checks that malformed queries fail alone: the rest of
// the batch still answers.
func TestErrorIsolation(t *testing.T) {
	tree, queries := fixture(t, 10)
	queries[2] = Query{Objective: core.Objective(200), Query: queries[2].Query}
	queries[5] = Query{Objective: core.ObjMinMax} // nil body
	// Out-of-range client partition: the solver panics; Run must absorb
	// it into the query's own error.
	bad := *queries[7].Query
	badClients := append([]core.Client(nil), bad.Clients...)
	badClients[0].Part = 10_000
	bad.Clients = badClients
	queries[7] = Query{Objective: core.ObjMinMax, Query: &bad}

	rep, err := Run(context.Background(), tree, queries, Options{Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range rep.Results {
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
	if rep.Counters.Errors != 3 {
		t.Errorf("Errors = %d, want 3", rep.Counters.Errors)
	}
	if rep.Counters.Queries != len(queries) {
		t.Errorf("Queries = %d, want %d", rep.Counters.Queries, len(queries))
	}
}

// TestCancellation checks that a cancelled context stops unstarted work
// and records ctx.Err per query instead of failing the batch.
func TestCancellation(t *testing.T) {
	tree, queries := fixture(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	rep, err := Run(ctx, tree, queries, Options{Workers: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range rep.Results {
		if r.Err == nil {
			t.Fatalf("query %d: want context error, got answer", i)
		}
	}
	if rep.Counters.Errors != len(queries) {
		t.Errorf("Errors = %d, want %d", rep.Counters.Errors, len(queries))
	}
	if rep.Counters.Queries != 0 {
		t.Errorf("Queries = %d, want 0 (nothing ran)", rep.Counters.Queries)
	}
}

// TestEmptyBatch keeps the degenerate case total.
func TestEmptyBatch(t *testing.T) {
	tree, _ := fixture(t, 1)
	rep, err := Run(context.Background(), tree, nil, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Results) != 0 || rep.Counters.Queries != 0 {
		t.Errorf("empty batch produced %+v", rep)
	}
}

// TestNilTree checks the one argument error Run returns.
func TestNilTree(t *testing.T) {
	if _, err := Run(context.Background(), nil, nil, Options{}); err == nil {
		t.Fatal("Run(nil tree): want error")
	}
}
