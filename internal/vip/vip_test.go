package vip

import (
	"math"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

func almostEq(a, b float64) bool { return a == b || math.Abs(a-b) < 1e-6 }

var testVenues = map[string]func() *indoor.Venue{
	"two-rooms":  testvenue.TwoRooms,
	"corridor-3": testvenue.Corridor3,
	"multi-door": testvenue.MultiDoorRooms,
	"grid-small": func() *indoor.Venue {
		return testvenue.Grid(testvenue.GridParams{Cols: 3, Levels: 1})
	},
	"grid-multi": func() *indoor.Venue {
		return testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 3, InterRoomDoors: true})
	},
	"grid-wide": func() *indoor.Venue {
		return testvenue.Grid(testvenue.GridParams{Cols: 12, Levels: 2, InterRoomDoors: true})
	},
}

var testOptions = map[string]Options{
	"vip":          {LeafFanout: 4, NodeFanout: 3, Vivid: true},
	"ip":           {LeafFanout: 4, NodeFanout: 3, Vivid: false},
	"vip-fanout-2": {LeafFanout: 2, NodeFanout: 2, Vivid: true},
	"vip-default":  DefaultOptions(),
}

func TestConstructionInvariants(t *testing.T) {
	for vn, mk := range testVenues {
		for on, opts := range testOptions {
			t.Run(vn+"/"+on, func(t *testing.T) {
				tree := MustBuild(mk(), opts)
				if err := tree.CheckInvariants(); err != nil {
					t.Fatalf("invariants: %v", err)
				}
				if tree.NumNodes() < 1 {
					t.Fatal("no nodes")
				}
				if got := tree.nodes[tree.root].parent; got != NoNode {
					t.Fatalf("root parent = %v", got)
				}
			})
		}
	}
}

func TestRootHasNoAccessDoors(t *testing.T) {
	tree := MustBuild(testvenue.Default(), DefaultOptions())
	if n := len(tree.AccessDoors(tree.root)); n != 0 {
		t.Fatalf("root has %d access doors, want 0", n)
	}
}

func TestLeafAssignment(t *testing.T) {
	v := testvenue.Default()
	tree := MustBuild(v, DefaultOptions())
	for p := 0; p < v.NumPartitions(); p++ {
		leaf := tree.Leaf(indoor.PartitionID(p))
		if !tree.IsLeaf(leaf) {
			t.Fatalf("Leaf(%d) = %d is not a leaf", p, leaf)
		}
		found := false
		for _, q := range tree.Partitions(leaf) {
			if q == indoor.PartitionID(p) {
				found = true
			}
		}
		if !found {
			t.Fatalf("partition %d not in its leaf's partition list", p)
		}
		if !tree.Contains(tree.root, indoor.PartitionID(p)) {
			t.Fatalf("root does not contain partition %d", p)
		}
	}
}

// TestDistancesMatchOracle is the core correctness property: every distance
// the index reports must equal the exact Dijkstra distance on the door
// graph, for every venue shape and both tree variants.
func TestDistancesMatchOracle(t *testing.T) {
	for vn, mk := range testVenues {
		for on, opts := range testOptions {
			t.Run(vn+"/"+on, func(t *testing.T) {
				v := mk()
				tree := MustBuild(v, opts)
				g := d2d.New(v)
				rng := rand.New(rand.NewSource(11))
				n := v.NumPartitions()
				for trial := 0; trial < 300; trial++ {
					pp := indoor.PartitionID(rng.Intn(n))
					qp := indoor.PartitionID(rng.Intn(n))
					p := v.RandomPointIn(pp, rng.Float64(), rng.Float64())
					q := v.RandomPointIn(qp, rng.Float64(), rng.Float64())
					want := g.PointToPoint(p, pp, q, qp)
					got := tree.DistPointToPoint(p, pp, q, qp)
					if !almostEq(got, want) {
						t.Fatalf("DistPointToPoint(%v@%d, %v@%d) = %v, oracle %v", p, pp, q, qp, got, want)
					}
				}
			})
		}
	}
}

func TestPointToPartitionMatchesOracle(t *testing.T) {
	for vn, mk := range testVenues {
		t.Run(vn, func(t *testing.T) {
			v := mk()
			tree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 3, Vivid: true})
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(5))
			n := v.NumPartitions()
			for trial := 0; trial < 200; trial++ {
				pp := indoor.PartitionID(rng.Intn(n))
				f := indoor.PartitionID(rng.Intn(n))
				p := v.RandomPointIn(pp, rng.Float64(), rng.Float64())
				want := g.PointToPartition(p, pp, f)
				got := tree.DistPointToPartition(p, pp, f)
				if !almostEq(got, want) {
					t.Fatalf("DistPointToPartition(%v@%d, %d) = %v, oracle %v", p, pp, f, got, want)
				}
			}
		})
	}
}

func TestPartitionToPartitionMatchesOracle(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	g := d2d.New(v)
	n := v.NumPartitions()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want := g.PartitionToPartition(indoor.PartitionID(a), indoor.PartitionID(b))
			got := tree.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID(b))
			if !almostEq(got, want) {
				t.Fatalf("DistPartitionToPartition(%d, %d) = %v, oracle %v", a, b, got, want)
			}
		}
	}
}

func TestVIPAndIPAgree(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	vipTree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	ipTree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: false})
	rng := rand.New(rand.NewSource(21))
	n := v.NumPartitions()
	for trial := 0; trial < 200; trial++ {
		pp := indoor.PartitionID(rng.Intn(n))
		qp := indoor.PartitionID(rng.Intn(n))
		p := v.RandomPointIn(pp, rng.Float64(), rng.Float64())
		q := v.RandomPointIn(qp, rng.Float64(), rng.Float64())
		dv := vipTree.DistPointToPoint(p, pp, q, qp)
		di := ipTree.DistPointToPoint(p, pp, q, qp)
		if !almostEq(dv, di) {
			t.Fatalf("VIP %v != IP %v for %v@%d -> %v@%d", dv, di, p, pp, q, qp)
		}
	}
}

func TestExplorerReuseAcrossClients(t *testing.T) {
	// One explorer per partition must serve multiple client points with
	// only their offsets differing.
	v := testvenue.MultiDoorRooms()
	tree := MustBuild(v, DefaultOptions())
	g := d2d.New(v)
	e := tree.NewExplorer(1) // R0: two doors
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		p := v.RandomPointIn(1, rng.Float64(), rng.Float64())
		offsets := e.PointOffsetsAppend(nil, p)
		for f := 0; f < v.NumPartitions(); f++ {
			if f == 1 {
				continue
			}
			want := g.PointToPartition(p, 1, indoor.PartitionID(f))
			got := e.PointToPartition(offsets, indoor.PartitionID(f))
			if !almostEq(got, want) {
				t.Fatalf("shared explorer distance to %d = %v, oracle %v", f, got, want)
			}
		}
	}
}

func TestMinToNodeIsLowerBound(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	g := d2d.New(v)
	rng := rand.New(rand.NewSource(33))
	n := v.NumPartitions()
	for trial := 0; trial < 100; trial++ {
		pp := indoor.PartitionID(rng.Intn(n))
		e := tree.NewExplorer(pp)
		for id := 0; id < tree.NumNodes(); id++ {
			bound := e.MinToNode(NodeID(id))
			// The bound must not exceed the exact distance to any
			// partition in the node's subtree.
			for _, f := range tree.collectParts(NodeID(id)) {
				exact := g.PartitionToPartition(pp, f)
				if bound > exact+1e-9 {
					t.Fatalf("MinToNode(%d)=%v exceeds exact %v to member partition %d", id, bound, exact, f)
				}
			}
		}
	}
}

func TestMinToNodeExactForBoundary(t *testing.T) {
	// iMinD to a node equals the exact distance to its nearest member
	// partition's nearest door... specifically the minimum over access
	// doors; verify it equals the oracle's min over member partitions'
	// entry doors.
	v := testvenue.Corridor3()
	tree := MustBuild(v, Options{LeafFanout: 1, NodeFanout: 2, Vivid: true})
	g := d2d.New(v)
	for pp := 0; pp < v.NumPartitions(); pp++ {
		e := tree.NewExplorer(indoor.PartitionID(pp))
		for id := 0; id < tree.NumNodes(); id++ {
			if tree.Contains(NodeID(id), indoor.PartitionID(pp)) {
				if e.MinToNode(NodeID(id)) != 0 {
					t.Fatalf("MinToNode(containing) != 0")
				}
				continue
			}
			best := math.Inf(1)
			for _, f := range tree.collectParts(NodeID(id)) {
				if d := g.PartitionToPartition(indoor.PartitionID(pp), f); d < best {
					best = d
				}
			}
			if got := e.MinToNode(NodeID(id)); !almostEq(got, best) {
				t.Fatalf("MinToNode(%d) from %d = %v, want %v", id, pp, got, best)
			}
		}
	}
}

func bruteNN(g *d2d.Graph, p geom.Point, pp indoor.PartitionID, fac []indoor.PartitionID) (indoor.PartitionID, float64) {
	best, bestD := indoor.NoPartition, math.Inf(1)
	for _, f := range fac {
		d := g.PointToPartition(p, pp, f)
		if d < bestD {
			best, bestD = f, d
		}
	}
	return best, bestD
}

func TestNearestFacilityMatchesBruteForce(t *testing.T) {
	for vn, mk := range testVenues {
		t.Run(vn, func(t *testing.T) {
			v := mk()
			tree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(77))
			n := v.NumPartitions()
			for trial := 0; trial < 100; trial++ {
				// Random facility subset.
				var fac []indoor.PartitionID
				for f := 0; f < n; f++ {
					if rng.Float64() < 0.3 {
						fac = append(fac, indoor.PartitionID(f))
					}
				}
				if len(fac) == 0 {
					continue
				}
				fs := NewFacilitySet(v, fac)
				pp := indoor.PartitionID(rng.Intn(n))
				p := v.RandomPointIn(pp, rng.Float64(), rng.Float64())
				_, wantD := bruteNN(g, p, pp, fac)
				gotF, gotD := nearest1(tree, p, pp, fs)
				if !almostEq(gotD, wantD) {
					t.Fatalf("NearestFacility dist = %v (%d), brute %v", gotD, gotF, wantD)
				}
			}
		})
	}
}

// nearest1 is the 1-NN search as the solvers ask for it: the nearest
// facility and its distance, or (NoPartition, +Inf) for an empty set.
func nearest1(tree *Tree, p geom.Point, pp indoor.PartitionID, fs *FacilitySet) (indoor.PartitionID, float64) {
	nn := tree.Nearest(p, pp, fs, 1, math.Inf(1), nil, nil)
	if len(nn) == 0 {
		return indoor.NoPartition, math.Inf(1)
	}
	return nn[0].Facility, nn[0].Dist
}

func TestNearestFacilityEmptySet(t *testing.T) {
	v := testvenue.TwoRooms()
	tree := MustBuild(v, DefaultOptions())
	fs := NewFacilitySet(v, nil)
	f, d := nearest1(tree, geom.Pt(5, 5, 0), 0, fs)
	if f != indoor.NoPartition || !math.IsInf(d, 1) {
		t.Fatalf("empty set NN = (%d, %v)", f, d)
	}
}

func TestNearestFacilityInOwnPartition(t *testing.T) {
	v := testvenue.TwoRooms()
	tree := MustBuild(v, DefaultOptions())
	fs := NewFacilitySet(v, []indoor.PartitionID{0, 1})
	f, d := nearest1(tree, geom.Pt(5, 5, 0), 0, fs)
	if f != 0 || d != 0 {
		t.Fatalf("own-partition NN = (%d, %v), want (0, 0)", f, d)
	}
}

func TestKNearestFacilities(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1})
	tree := MustBuild(v, DefaultOptions())
	g := d2d.New(v)
	rooms := v.Rooms()
	fs := NewFacilitySet(v, rooms)
	rng := rand.New(rand.NewSource(3))
	pp := rooms[0]
	p := v.RandomPointIn(pp, rng.Float64(), rng.Float64())
	const k = 4
	got := tree.Nearest(p, pp, fs, k, math.Inf(1), nil, nil)
	if len(got) != k {
		t.Fatalf("got %d results, want %d", len(got), k)
	}
	// Ascending order.
	for i := 1; i < k; i++ {
		if got[i].Dist < got[i-1].Dist-1e-9 {
			t.Fatalf("distances not ascending: %v", got)
		}
	}
	// Each distance exact.
	for i, nb := range got {
		want := g.PointToPartition(p, pp, nb.Facility)
		if !almostEq(nb.Dist, want) {
			t.Fatalf("kNN dist[%d] = %v, oracle %v", i, nb.Dist, want)
		}
	}
	// k exceeding facility count returns all facilities.
	all := tree.Nearest(p, pp, fs, 1000, math.Inf(1), nil, nil)
	if len(all) != fs.Len() {
		t.Fatalf("oversized k returned %d of %d", len(all), fs.Len())
	}
	// Degenerate k.
	if got := tree.Nearest(p, pp, fs, 0, math.Inf(1), nil, nil); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestFacilitySetDeduplicates(t *testing.T) {
	v := testvenue.TwoRooms()
	fs := NewFacilitySet(v, []indoor.PartitionID{1, 1, 1})
	if fs.Len() != 1 {
		t.Fatalf("Len = %d, want 1", fs.Len())
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	tree := MustBuild(testvenue.Default(), DefaultOptions())
	if tree.MemoryFootprint() <= 0 {
		t.Fatal("MemoryFootprint must be positive")
	}
	ip := MustBuild(testvenue.Default(), Options{LeafFanout: 8, NodeFanout: 4, Vivid: false})
	if ip.MemoryFootprint() >= tree.MemoryFootprint() {
		t.Fatalf("IP-tree footprint %d should be below VIP %d", ip.MemoryFootprint(), tree.MemoryFootprint())
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := Build(testvenue.TwoRooms(), Options{LeafFanout: -1, NodeFanout: 4}); err == nil {
		t.Fatal("expected error for negative fanout")
	}
	if _, err := Build(testvenue.TwoRooms(), Options{LeafFanout: 4, NodeFanout: 1}); err == nil {
		t.Fatal("expected error for fanout 1")
	}
}

func BenchmarkBuildGrid(b *testing.B) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 40, Levels: 4, InterRoomDoors: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(v, DefaultOptions())
	}
}

func BenchmarkDistPointToPoint(b *testing.B) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 40, Levels: 4, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	n := v.NumPartitions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp := indoor.PartitionID(rng.Intn(n))
		qp := indoor.PartitionID(rng.Intn(n))
		p := v.RandomPointIn(pp, 0.5, 0.5)
		q := v.RandomPointIn(qp, 0.5, 0.5)
		tree.DistPointToPoint(p, pp, q, qp)
	}
}

func BenchmarkNearestFacility(b *testing.B) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 40, Levels: 4, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	rooms := v.Rooms()
	var fac []indoor.PartitionID
	for i, r := range rooms {
		if i%10 == 0 {
			fac = append(fac, r)
		}
	}
	fs := NewFacilitySet(v, fac)
	rng := rand.New(rand.NewSource(1))
	var nn [1]Neighbor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp := rooms[rng.Intn(len(rooms))]
		p := v.RandomPointIn(pp, 0.5, 0.5)
		tree.Nearest(p, pp, fs, 1, math.Inf(1), nil, nn[:0])
	}
}
