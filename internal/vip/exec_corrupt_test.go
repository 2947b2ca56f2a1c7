package vip_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// execRecover runs one Exec query and converts a query-time corruption
// panic back into its error.
func execRecover(tree *vip.Tree, q *core.Query, obj core.Objective) (err error) {
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			err = e
		}
	}()
	_, err = core.Exec(context.Background(), tree, q, core.Options{Objective: obj})
	return err
}

// TestPagedBadUnionCellFailsOnlyItsPage is the union-matrix variant of
// TestPagedBadCellFailsOnlyItsPage, through core.Exec: a NaN or negative
// union-matrix cell under a recomputed page CRC fails exactly the Exec
// queries that read its page, on every repetition, and no other. Bound-table
// rows are derived from union rows, so this pins that a failed derivation
// publishes nothing: every later query that needs the row reads the page
// again and fails again, while rows from healthy pages stay published.
func TestPagedBadUnionCellFailsOnlyItsPage(t *testing.T) {
	const pageSize = 64
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	data := vip.SavePagedBytes(t, tree, pageSize)

	// MinMax and MinDist take node bounds through MinToNode, the baseline's
	// nearest-facility search through PointToNode.
	objs := []core.Objective{core.ObjMinMax, core.ObjBaseline, core.ObjMinDist}
	rng := rand.New(rand.NewSource(5))
	rooms := v.Rooms()
	queries := make([]*core.Query, 24)
	for i := range queries {
		perm := rng.Perm(len(rooms))
		q := &core.Query{}
		for _, j := range perm[:2] {
			q.Existing = append(q.Existing, rooms[j])
		}
		for _, j := range perm[2:5] {
			q.Candidates = append(q.Candidates, rooms[j])
		}
		for c := 0; c < 6; c++ {
			p := rooms[rng.Intn(len(rooms))]
			q.Clients = append(q.Clients, core.Client{ID: int32(c), Loc: v.RandomPointIn(p, rng.Float64(), rng.Float64()), Part: p})
		}
		queries[i] = q
	}

	// The pages each query reads, from a fresh clean tree per query.
	touched := make([]map[int64]bool, len(queries))
	for i, q := range queries {
		rec, pages := vip.RecordPages(data, pageSize)
		clean, err := vip.OpenPaged(rec, int64(len(data)), v, vip.PagedOptions{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := execRecover(clean, q, objs[i%len(objs)]); err != nil {
			t.Fatalf("query %d on the clean tree: %v", i, err)
		}
		touched[i] = pages
		clean.Close()
	}
	// A union cell whose page some queries read and others do not. A
	// cell is 8 bytes.
	pageOf := func(cell int64) int64 { return cell * 8 / pageSize }
	cell := int64(-1)
	for _, c := range vip.UnionCells(tree) {
		n := 0
		for _, pages := range touched {
			if pages[pageOf(c)] {
				n++
			}
		}
		if n > 0 && n < len(queries) {
			cell = c
			break
		}
	}
	if cell < 0 {
		t.Fatal("no union cell splits the queries; the test proves nothing")
	}
	badPage := pageOf(cell)

	for name, f := range map[string]float64{"NaN": math.NaN(), "negative": -1} {
		t.Run(name, func(t *testing.T) {
			bad := vip.WithCell(t, data, cell, f)
			paged, err := vip.OpenPaged(bytes.NewReader(bad), int64(len(bad)), v, vip.PagedOptions{CacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer paged.Close()
			failed, passed := 0, 0
			for rep := 0; rep < 2; rep++ {
				for i, q := range queries {
					err := execRecover(paged, q, objs[i%len(objs)])
					switch {
					case touched[i][badPage] && !errors.Is(err, faults.ErrCorruptIndex):
						t.Fatalf("rep %d: query %d reads the bad page: err = %v, want ErrCorruptIndex", rep, i, err)
					case !touched[i][badPage] && err != nil:
						t.Fatalf("rep %d: query %d does not read the bad page but failed: %v", rep, i, err)
					case err != nil:
						failed++
					default:
						passed++
					}
				}
			}
			if failed == 0 || passed == 0 {
				t.Fatalf("%d failed, %d passed: the bad page must split the queries", failed, passed)
			}
		})
	}
}
