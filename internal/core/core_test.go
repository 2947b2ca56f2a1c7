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

func almostEq(a, b float64) bool { return a == b || math.Abs(a-b) < 1e-6 }

// randomQuery builds a random IFLS instance: disjoint existing/candidate
// sets drawn from rooms, clients at random points.
func randomQuery(v *indoor.Venue, rng *rand.Rand, nExist, nCand, nClients int) *Query {
	rooms := append([]indoor.PartitionID(nil), v.Rooms()...)
	rng.Shuffle(len(rooms), func(i, j int) { rooms[i], rooms[j] = rooms[j], rooms[i] })
	q := &Query{}
	if nExist > len(rooms) {
		nExist = len(rooms)
	}
	q.Existing = append(q.Existing, rooms[:nExist]...)
	rest := rooms[nExist:]
	if nCand > len(rest) {
		nCand = len(rest)
	}
	q.Candidates = append(q.Candidates, rest[:nCand]...)
	all := v.Rooms()
	for i := 0; i < nClients; i++ {
		p := all[rng.Intn(len(all))]
		q.Clients = append(q.Clients, Client{
			ID:   int32(i),
			Loc:  v.RandomPointIn(p, rng.Float64(), rng.Float64()),
			Part: p,
		})
	}
	return q
}

// checkAgainstBrute verifies a solver result against the brute-force
// oracle: the Found flags must match, the objective must equal the optimum,
// and the chosen answer must itself achieve the optimal objective.
func checkAgainstBrute(t *testing.T, q *Query, got Result, want BruteResult) {
	t.Helper()
	if got.Found != want.Found {
		t.Fatalf("Found = %v, oracle %v (oracle ans %d obj %v statusquo %v)",
			got.Found, want.Found, want.Answer, want.Objective, want.StatusQuo)
	}
	if !got.Found {
		return
	}
	if !almostEq(got.Objective, want.Objective) {
		t.Fatalf("Objective = %v, oracle %v (answer %d vs %d)", got.Objective, want.Objective, got.Answer, want.Answer)
	}
	// Ties are legal: the chosen candidate must achieve the optimum.
	for j, n := range q.Candidates {
		if n == got.Answer {
			if !almostEq(want.Objectives[j], want.Objective) {
				t.Fatalf("answer %d has objective %v, optimum is %v", n, want.Objectives[j], want.Objective)
			}
			return
		}
	}
	t.Fatalf("answer %d is not a candidate", got.Answer)
}

var coreVenues = map[string]func() *indoor.Venue{
	"corridor-3": testvenue.Corridor3,
	"multi-door": testvenue.MultiDoorRooms,
	"grid-1lv": func() *indoor.Venue {
		return testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1, InterRoomDoors: true})
	},
	"grid-3lv": func() *indoor.Venue {
		return testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 3, InterRoomDoors: true})
	},
}

func TestSolversAgreeWithOracleRandomized(t *testing.T) {
	for vn, mk := range coreVenues {
		t.Run(vn, func(t *testing.T) {
			v := mk()
			tree := vip.MustBuild(v, vip.Options{LeafFanout: 4, NodeFanout: 3, Vivid: true})
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(1234))
			for trial := 0; trial < 60; trial++ {
				nRooms := len(v.Rooms())
				ne := 1 + rng.Intn(nRooms/3+1)
				nc := 1 + rng.Intn(nRooms/2+1)
				m := 1 + rng.Intn(30)
				q := randomQuery(v, rng, ne, nc, m)
				if err := q.Validate(v); err != nil {
					t.Fatalf("invalid query: %v", err)
				}
				want := SolveBrute(g, q)
				gotEA := execOf(tree, q, Options{}).MinMax
				checkAgainstBrute(t, q, gotEA, want)
				gotBL := execOf(tree, q, Options{Objective: ObjBaseline}).MinMax
				checkAgainstBrute(t, q, gotBL, want)
			}
		})
	}
}

func TestSolversAgreeOnIPTree(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.Options{LeafFanout: 3, NodeFanout: 2, Vivid: false})
	g := d2d.New(v)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		q := randomQuery(v, rng, 1+rng.Intn(4), 1+rng.Intn(6), 1+rng.Intn(20))
		want := SolveBrute(g, q)
		checkAgainstBrute(t, q, execOf(tree, q, Options{}).MinMax, want)
		checkAgainstBrute(t, q, execOf(tree, q, Options{Objective: ObjBaseline}).MinMax, want)
	}
}

func TestNoClients(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := &Query{Existing: []indoor.PartitionID{1}, Candidates: []indoor.PartitionID{2}}
	for name, r := range map[string]Result{
		"efficient": execOf(tree, q, Options{}).MinMax,
		"baseline":  execOf(tree, q, Options{Objective: ObjBaseline}).MinMax,
		"brute":     SolveBrute(d2d.New(v), q).Result,
	} {
		if r.Found {
			t.Errorf("%s: Found with no clients", name)
		}
	}
}

func TestNoCandidates(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := &Query{Existing: []indoor.PartitionID{1}, Clients: []Client{clientIn(v, 2, 0)}}
	for name, r := range map[string]Result{
		"efficient": execOf(tree, q, Options{}).MinMax,
		"baseline":  execOf(tree, q, Options{Objective: ObjBaseline}).MinMax,
		"brute":     SolveBrute(d2d.New(v), q).Result,
	} {
		if r.Found {
			t.Errorf("%s: Found with no candidates", name)
		}
	}
}

func TestNoExistingFacilities(t *testing.T) {
	// With no existing facilities the status quo is infinite, so the best
	// candidate always wins.
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	rng := rand.New(rand.NewSource(5))
	rooms := v.Rooms()
	q := &Query{Candidates: rooms[:4]}
	for i := 0; i < 15; i++ {
		p := rooms[rng.Intn(len(rooms))]
		q.Clients = append(q.Clients, Client{ID: int32(i), Loc: v.RandomPointIn(p, rng.Float64(), rng.Float64()), Part: p})
	}
	want := SolveBrute(g, q)
	if !want.Found {
		t.Fatal("oracle should find an answer with no existing facilities")
	}
	checkAgainstBrute(t, q, execOf(tree, q, Options{}).MinMax, want)
	checkAgainstBrute(t, q, execOf(tree, q, Options{Objective: ObjBaseline}).MinMax, want)
}

func TestAllClientsInsideExistingFacilities(t *testing.T) {
	// Every client is already at distance 0: nothing can improve.
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := &Query{
		Existing:   []indoor.PartitionID{1, 2},
		Candidates: []indoor.PartitionID{3},
		Clients:    []Client{clientIn(v, 1, 0), clientIn(v, 2, 1)},
	}
	want := SolveBrute(d2d.New(v), q)
	if want.Found {
		t.Fatal("oracle: no improvement expected")
	}
	checkAgainstBrute(t, q, execOf(tree, q, Options{}).MinMax, want)
	checkAgainstBrute(t, q, execOf(tree, q, Options{Objective: ObjBaseline}).MinMax, want)
}

func TestClientInsideCandidate(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	q := &Query{
		Existing:   []indoor.PartitionID{1},
		Candidates: []indoor.PartitionID{3},
		Clients:    []Client{clientIn(v, 3, 0)},
	}
	want := SolveBrute(g, q)
	checkAgainstBrute(t, q, execOf(tree, q, Options{}).MinMax, want)
	checkAgainstBrute(t, q, execOf(tree, q, Options{Objective: ObjBaseline}).MinMax, want)
}

func clientIn(v *indoor.Venue, p indoor.PartitionID, id int32) Client {
	return Client{ID: id, Loc: v.Partition(p).Rect.Center(), Part: p}
}

func TestSingleClientSingleCandidate(t *testing.T) {
	v := testvenue.TwoRooms()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	q := &Query{
		Existing:   nil,
		Candidates: []indoor.PartitionID{1},
		Clients:    []Client{clientIn(v, 0, 0)},
	}
	want := SolveBrute(g, q)
	got := execOf(tree, q, Options{}).MinMax
	checkAgainstBrute(t, q, got, want)
	// Exact value: center of A (5,5) to door (10,5) = 5, partition B is
	// reached at its door, so objective 5.
	if !almostEq(got.Objective, 5) {
		t.Fatalf("Objective = %v, want 5", got.Objective)
	}
}

func TestDuplicateCandidates(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	q := &Query{
		Existing:   []indoor.PartitionID{1},
		Candidates: []indoor.PartitionID{3, 3, 2, 2},
		Clients:    []Client{clientIn(v, 2, 0), clientIn(v, 3, 1)},
	}
	want := SolveBrute(g, q)
	checkAgainstBrute(t, q, execOf(tree, q, Options{}).MinMax, want)
	checkAgainstBrute(t, q, execOf(tree, q, Options{Objective: ObjBaseline}).MinMax, want)
}

func TestEfficientPrunesClients(t *testing.T) {
	// Clients sitting inside existing facilities must be pruned without
	// any candidate retrievals spent on them.
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:3],
		Candidates: rooms[3:5],
	}
	for i := 0; i < 10; i++ {
		q.Clients = append(q.Clients, clientIn(v, rooms[i%3], int32(i)))
	}
	r := execOf(tree, q, Options{}).MinMax
	if r.Found {
		t.Fatal("no improvement expected for clients inside facilities")
	}
	if r.Stats.PrunedClients != 10 {
		t.Fatalf("PrunedClients = %d, want 10", r.Stats.PrunedClients)
	}
	if r.Stats.DistanceCalcs != 0 {
		t.Fatalf("DistanceCalcs = %d, want 0 (all clients pruned in preamble)", r.Stats.DistanceCalcs)
	}
}

func TestEfficientStatsPopulated(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rng := rand.New(rand.NewSource(8))
	q := randomQuery(v, rng, 2, 4, 20)
	r := execOf(tree, q, Options{}).MinMax
	if r.Stats.QueuePops == 0 || r.Stats.Retrievals == 0 {
		t.Fatalf("stats not populated: %+v", r.Stats)
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	v := testvenue.TwoRooms()
	bad := []*Query{
		{Existing: []indoor.PartitionID{99}},
		{Candidates: []indoor.PartitionID{-1}},
		{Clients: []Client{{ID: 0, Part: 99}}},
		{Clients: []Client{{ID: 0, Part: 0, Loc: v.Partition(1).Rect.Center()}}},
	}
	for i, q := range bad {
		if err := q.Validate(v); err == nil {
			t.Errorf("query %d: expected validation error", i)
		}
	}
}

func TestStressManyClients(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	v := testvenue.Grid(testvenue.GridParams{Cols: 10, Levels: 3, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		q := randomQuery(v, rng, 5, 10, 500)
		want := SolveBrute(g, q)
		checkAgainstBrute(t, q, execOf(tree, q, Options{}).MinMax, want)
		checkAgainstBrute(t, q, execOf(tree, q, Options{Objective: ObjBaseline}).MinMax, want)
	}
}
