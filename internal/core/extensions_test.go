package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

func checkExtAgainstBrute(t *testing.T, name string, q *Query, got ExtResult, want BruteExtResult) {
	t.Helper()
	if want.Answer == indoor.NoPartition {
		if got.Answer != indoor.NoPartition {
			t.Fatalf("%s: Answer = %d, oracle has none", name, got.Answer)
		}
		return
	}
	if !almostEq(got.Objective, want.Objective) {
		t.Fatalf("%s: Objective = %v, oracle %v (answers %d vs %d)",
			name, got.Objective, want.Objective, got.Answer, want.Answer)
	}
	for j, n := range q.Candidates {
		if n == got.Answer {
			if !almostEq(want.PerCandidate[j], want.Objective) {
				t.Fatalf("%s: answer %d has objective %v, optimum %v", name, n, want.PerCandidate[j], want.Objective)
			}
			if got.Improves != want.Improves {
				t.Fatalf("%s: Improves = %v, oracle %v", name, got.Improves, want.Improves)
			}
			return
		}
	}
	t.Fatalf("%s: answer %d not a candidate", name, got.Answer)
}

func TestMinDistAgainstOracleRandomized(t *testing.T) {
	for vn, mk := range coreVenues {
		t.Run(vn, func(t *testing.T) {
			v := mk()
			tree := vip.MustBuild(v, vip.Options{LeafFanout: 4, NodeFanout: 3, Vivid: true})
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(314))
			for trial := 0; trial < 50; trial++ {
				nRooms := len(v.Rooms())
				q := randomQuery(v, rng, 1+rng.Intn(nRooms/3+1), 1+rng.Intn(nRooms/2+1), 1+rng.Intn(25))
				want := SolveBruteMinDist(g, q)
				got := execOf(tree, q, Options{Objective: ObjMinDist}).Ext
				checkExtAgainstBrute(t, "mindist", q, got, want)
			}
		})
	}
}

func TestMaxSumAgainstOracleRandomized(t *testing.T) {
	for vn, mk := range coreVenues {
		t.Run(vn, func(t *testing.T) {
			v := mk()
			tree := vip.MustBuild(v, vip.Options{LeafFanout: 4, NodeFanout: 3, Vivid: true})
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(2718))
			for trial := 0; trial < 50; trial++ {
				nRooms := len(v.Rooms())
				q := randomQuery(v, rng, 1+rng.Intn(nRooms/3+1), 1+rng.Intn(nRooms/2+1), 1+rng.Intn(25))
				want := SolveBruteMaxSum(g, q)
				got := execOf(tree, q, Options{Objective: ObjMaxSum}).Ext
				checkExtAgainstBrute(t, "maxsum", q, got, want)
			}
		})
	}
}

func TestMinDistEmptyQueries(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	if r := execOf(tree, &Query{Candidates: []indoor.PartitionID{1}}, Options{Objective: ObjMinDist}).Ext; r.Answer != indoor.NoPartition {
		t.Error("no clients: expected no answer")
	}
	if r := execOf(tree, &Query{Clients: []Client{clientIn(v, 1, 0)}}, Options{Objective: ObjMinDist}).Ext; r.Answer != indoor.NoPartition {
		t.Error("no candidates: expected no answer")
	}
}

func TestMaxSumEmptyQueries(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	if r := execOf(tree, &Query{Candidates: []indoor.PartitionID{1}}, Options{Objective: ObjMaxSum}).Ext; r.Answer != indoor.NoPartition {
		t.Error("no clients: expected no answer")
	}
	if r := execOf(tree, &Query{Clients: []Client{clientIn(v, 1, 0)}}, Options{Objective: ObjMaxSum}).Ext; r.Answer != indoor.NoPartition {
		t.Error("no candidates: expected no answer")
	}
}

func TestMinDistNoExisting(t *testing.T) {
	// With no existing facilities the MinDist total is the sum of
	// client-to-candidate distances.
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	q := &Query{
		Candidates: []indoor.PartitionID{1, 3},
		Clients:    []Client{clientIn(v, 1, 0), clientIn(v, 2, 1), clientIn(v, 3, 2)},
	}
	want := SolveBruteMinDist(g, q)
	got := execOf(tree, q, Options{Objective: ObjMinDist}).Ext
	checkExtAgainstBrute(t, "mindist", q, got, want)
	if !got.Improves {
		t.Error("finite total must improve over infinite status quo")
	}
}

func TestMaxSumAllClientsCaptured(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	// Existing facility far right (R2); candidate R0 captures clients in
	// R0 but not those inside R2.
	q := &Query{
		Existing:   []indoor.PartitionID{3},
		Candidates: []indoor.PartitionID{1},
		Clients:    []Client{clientIn(v, 1, 0), clientIn(v, 1, 1), clientIn(v, 3, 2)},
	}
	got := execOf(tree, q, Options{Objective: ObjMaxSum}).Ext
	if got.Objective != 2 {
		t.Fatalf("captured = %v, want 2", got.Objective)
	}
	if !got.Improves {
		t.Error("capturing clients must report improvement")
	}
}

func TestMaxSumNoImprovement(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	// All clients sit inside the existing facility: nothing captured.
	q := &Query{
		Existing:   []indoor.PartitionID{1},
		Candidates: []indoor.PartitionID{3},
		Clients:    []Client{clientIn(v, 1, 0), clientIn(v, 1, 1)},
	}
	got := execOf(tree, q, Options{Objective: ObjMaxSum}).Ext
	if got.Objective != 0 || got.Improves {
		t.Fatalf("expected zero captures, got %+v", got)
	}
}

func TestMinDistExactValue(t *testing.T) {
	// TwoRooms, client at center of A (5,5), candidate B, no existing.
	// Distance: 5 to the door, partition B reached at the door, total 5.
	v := testvenue.TwoRooms()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := &Query{
		Candidates: []indoor.PartitionID{1},
		Clients:    []Client{clientIn(v, 0, 0)},
	}
	got := execOf(tree, q, Options{Objective: ObjMinDist}).Ext
	if !almostEq(got.Objective, 5) {
		t.Fatalf("Objective = %v, want 5", got.Objective)
	}
}

func TestExtensionsPruneClients(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 1})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:4],
		Candidates: rooms[4:6],
	}
	// Clients inside existing facilities are pruned in the preamble.
	for i := 0; i < 8; i++ {
		q.Clients = append(q.Clients, clientIn(v, rooms[i%4], int32(i)))
	}
	for name, r := range map[string]ExtResult{
		"mindist": execOf(tree, q, Options{Objective: ObjMinDist}).Ext,
		"maxsum":  execOf(tree, q, Options{Objective: ObjMaxSum}).Ext,
	} {
		if r.Stats.PrunedClients != 8 {
			t.Errorf("%s: PrunedClients = %d, want 8", name, r.Stats.PrunedClients)
		}
		if r.Improves {
			t.Errorf("%s: no improvement expected", name)
		}
	}
}

func TestMinDistObjectiveIsFiniteWithExisting(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rng := rand.New(rand.NewSource(99))
	q := randomQuery(v, rng, 3, 4, 40)
	got := execOf(tree, q, Options{Objective: ObjMinDist}).Ext
	if math.IsNaN(got.Objective) || math.IsInf(got.Objective, 0) {
		t.Fatalf("Objective = %v", got.Objective)
	}
}
