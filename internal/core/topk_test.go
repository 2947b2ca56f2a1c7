package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

func TestTopKMatchesBruteRanking(t *testing.T) {
	for vn, mk := range coreVenues {
		t.Run(vn, func(t *testing.T) {
			v := mk()
			tree := vip.MustBuild(v, vip.Options{LeafFanout: 4, NodeFanout: 3, Vivid: true})
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(6021))
			for trial := 0; trial < 30; trial++ {
				nRooms := len(v.Rooms())
				q := randomQuery(v, rng, 1+rng.Intn(nRooms/4+1), 2+rng.Intn(nRooms/2), 1+rng.Intn(25))
				k := 1 + rng.Intn(4)
				got := execOf(tree, q, Options{Objective: ObjTopK, K: k}).TopK
				want := SolveBrute(g, q)

				// Expected: candidate objectives sorted ascending, below
				// the status quo, truncated to k.
				type ranked struct {
					obj float64
				}
				var objs []float64
				for _, o := range want.Objectives {
					if o < want.StatusQuo {
						objs = append(objs, o)
					}
				}
				sort.Float64s(objs)
				if len(objs) > k {
					objs = objs[:k]
				}
				if len(got) != len(objs) {
					t.Fatalf("k=%d: got %d results, want %d (statusquo %v)", k, len(got), len(objs), want.StatusQuo)
				}
				for i := range got {
					if !almostEq(got[i].Objective, objs[i]) {
						t.Fatalf("rank %d: objective %v, want %v", i, got[i].Objective, objs[i])
					}
					// The reported candidate must achieve its reported
					// objective exactly per the oracle.
					found := false
					for j, n := range q.Candidates {
						if n == got[i].Candidate {
							found = true
							if !almostEq(want.Objectives[j], got[i].Objective) {
								t.Fatalf("rank %d: candidate %d has oracle objective %v, reported %v",
									i, n, want.Objectives[j], got[i].Objective)
							}
						}
					}
					if !found {
						t.Fatalf("rank %d: %d is not a candidate", i, got[i].Candidate)
					}
				}
			}
		})
	}
}

func TestTopKDegenerate(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := &Query{
		Existing:   nil,
		Candidates: nil,
		Clients:    []Client{clientIn(v, 1, 0)},
	}
	if got := execOf(tree, q, Options{Objective: ObjTopK, K: 3}).TopK; got != nil {
		t.Fatalf("no candidates: got %v", got)
	}
	if got := execOf(tree, q, Options{Objective: ObjTopK, K: 0}).TopK; got != nil {
		t.Fatalf("k=0: got %v", got)
	}
}

func TestTopKOrdersAscending(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 1, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rng := rand.New(rand.NewSource(17))
	q := randomQuery(v, rng, 2, 8, 40)
	got := execOf(tree, q, Options{Objective: ObjTopK, K: 5}).TopK
	for i := 1; i < len(got); i++ {
		if got[i].Objective < got[i-1].Objective-1e-9 {
			t.Fatalf("not ascending: %v", got)
		}
	}
	// Top-1 agrees with MinMax.
	if len(got) > 0 {
		single := execOf(tree, q, Options{}).MinMax
		if !single.Found || !almostEq(single.Objective, got[0].Objective) {
			t.Fatalf("top-1 %v disagrees with minmax %v", got[0], single)
		}
	}
}
