package core

import (
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestPreambleCounterParity pins the cross-solver counter contract on the
// degenerate preamble-only case: with every client inside an existing
// facility partition, all three traversal-based solvers (MinMax efficient,
// MinDist, MaxSum) must charge exactly one Retrieval per client, zero
// DistanceCalcs (no exact point-to-partition computation happens), zero
// QueuePops (the traversal never starts), and prune every client at bound
// zero. The extension solvers used to skip the preamble's Retrievals
// accounting; this test fails if that drift returns.
func TestPreambleCounterParity(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:3],
		Candidates: rooms[3:6],
	}
	id := int32(0)
	for _, p := range q.Existing {
		q.Clients = append(q.Clients, clientIn(v, p, id), clientIn(v, p, id+1))
		id += 2
	}
	m := len(q.Clients)

	eff := execOf(tree, q, Options{}).MinMax
	md := execOf(tree, q, Options{Objective: ObjMinDist}).Ext
	ms := execOf(tree, q, Options{Objective: ObjMaxSum}).Ext

	for name, st := range map[string]Stats{
		"efficient": eff.Stats,
		"mindist":   md.Stats,
		"maxsum":    ms.Stats,
	} {
		if st.Retrievals != m {
			t.Errorf("%s: Retrievals = %d, want %d (one per in-facility client)", name, st.Retrievals, m)
		}
		if st.DistanceCalcs != 0 {
			t.Errorf("%s: DistanceCalcs = %d, want 0 (no exact computation in the preamble)", name, st.DistanceCalcs)
		}
		if st.QueuePops != 0 {
			t.Errorf("%s: QueuePops = %d, want 0 (traversal never starts)", name, st.QueuePops)
		}
		if st.PrunedClients != m {
			t.Errorf("%s: PrunedClients = %d, want %d", name, st.PrunedClients, m)
		}
	}
}

// TestBaselineCountsSearchWork pins the baseline's side of the contract:
// DistanceCalcs must include the exact distance computations performed
// inside each per-client NN search (not just one per search), and
// QueuePops must count the searches' dequeues. Before this accounting the
// baseline reported QueuePops = 0 and one DistanceCalc per client, which
// understated its work in every Figure 1 comparison.
func TestBaselineCountsSearchWork(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{Existing: rooms[:4], Candidates: rooms[4:8]}
	// Clients live outside every facility partition, so each one's NN
	// search must dequeue nodes and compute at least one exact distance.
	rng := rand.New(rand.NewSource(21))
	free := rooms[8:]
	m := 12
	for i := 0; i < m; i++ {
		p := free[rng.Intn(len(free))]
		q.Clients = append(q.Clients, Client{ID: int32(i), Loc: v.RandomPointIn(p, rng.Float64(), rng.Float64()), Part: p})
	}

	res := execOf(tree, q, Options{Objective: ObjBaseline}).MinMax
	if res.Stats.QueuePops < m {
		t.Errorf("QueuePops = %d, want >= %d (every NN search dequeues)", res.Stats.QueuePops, m)
	}
	// Retrievals counts materialized (client, candidate) pairs only; the
	// NN searches' internal computations push DistanceCalcs strictly past
	// it by at least one per client.
	if res.Stats.DistanceCalcs < res.Stats.Retrievals+m {
		t.Errorf("DistanceCalcs = %d, want >= Retrievals (%d) + %d NN-search computations",
			res.Stats.DistanceCalcs, res.Stats.Retrievals, m)
	}

	// Work accounting is deterministic: the same query yields identical
	// counters on a re-run.
	again := execOf(tree, q, Options{Objective: ObjBaseline}).MinMax
	if again.Stats != res.Stats {
		t.Errorf("baseline stats differ across runs:\n first %+v\nsecond %+v", res.Stats, again.Stats)
	}

	// Both solvers count the same event kinds on a workload that makes
	// them all fire.
	eff := execOf(tree, q, Options{}).MinMax
	if eff.Stats.DistanceCalcs == 0 || eff.Stats.QueuePops == 0 || eff.Stats.Retrievals == 0 {
		t.Errorf("efficient solver counters not populated: %+v", eff.Stats)
	}
	if eff.Found != res.Found || (eff.Found && !almostEq(eff.Objective, res.Objective)) {
		t.Errorf("solvers disagree: efficient %+v, baseline %+v", eff, res)
	}
}

// TestClientInsideCandidateCountsRetrieval covers the mixed preamble: a
// client inside a candidate (not existing) partition is retrieved at
// distance zero by all three traversal solvers but stays active, so the
// candidate-side preamble accounting must match too.
func TestClientInsideCandidateCountsRetrieval(t *testing.T) {
	v := testvenue.Corridor3()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	q := &Query{
		Existing:   []indoor.PartitionID{1},
		Candidates: []indoor.PartitionID{3},
		Clients:    []Client{clientIn(v, 3, 0)},
	}
	eff := execOf(tree, q, Options{}).MinMax
	md := execOf(tree, q, Options{Objective: ObjMinDist}).Ext
	ms := execOf(tree, q, Options{Objective: ObjMaxSum}).Ext
	for name, st := range map[string]Stats{
		"efficient": eff.Stats,
		"mindist":   md.Stats,
		"maxsum":    ms.Stats,
	} {
		if st.Retrievals < 1 {
			t.Errorf("%s: Retrievals = %d, want >= 1 (preamble retrieval of the candidate)", name, st.Retrievals)
		}
		// The solvers may answer before Lemma 5.1 fires (the candidate at
		// distance zero settles the query), but they must agree on whether
		// it fired.
		if st.PrunedClients != eff.Stats.PrunedClients {
			t.Errorf("%s: PrunedClients = %d, efficient reports %d", name, st.PrunedClients, eff.Stats.PrunedClients)
		}
	}
}
