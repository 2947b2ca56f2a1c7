package vip

import (
	"math"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

func TestExplorerSourceAccessors(t *testing.T) {
	v := testvenue.MultiDoorRooms()
	tree := MustBuild(v, DefaultOptions())
	e := tree.NewExplorer(1) // R0 has two doors
	if e.Source() != 1 {
		t.Fatalf("Source = %d", e.Source())
	}
	if got, want := len(e.SrcDoors()), len(v.Partition(1).Doors); got != want {
		t.Fatalf("SrcDoors = %d, want %d", got, want)
	}
	p := v.Partition(1).Rect.Center()
	offsets := e.PointOffsetsAppend(nil, p)
	if len(offsets) != len(e.SrcDoors()) {
		t.Fatalf("offsets size %d", len(offsets))
	}
	for i, d := range e.SrcDoors() {
		want := v.PointDoorDist(1, p, d)
		if offsets[i] != want {
			t.Fatalf("offset[%d] = %v, want %v", i, offsets[i], want)
		}
	}
}

func TestExplorerVectorShapes(t *testing.T) {
	v := testvenue.Default()
	tree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	src := v.Rooms()[0]
	e := tree.NewExplorer(src)
	rows := len(v.Partition(src).Doors)
	for id := 0; id < tree.NumNodes(); id++ {
		n := NodeID(id)
		ad := e.ADVec(n)
		if len(ad) != rows {
			t.Fatalf("ADVec(%d) rows = %d, want %d", id, len(ad), rows)
		}
		for _, row := range ad {
			if len(row) != len(tree.AccessDoors(n)) {
				t.Fatalf("ADVec(%d) cols = %d, want %d", id, len(row), len(tree.AccessDoors(n)))
			}
			for _, d := range row {
				if d < 0 {
					t.Fatalf("negative distance in ADVec(%d)", id)
				}
			}
		}
		if tree.IsLeaf(n) {
			dv := e.DoorVec(n)
			if len(dv) != rows {
				t.Fatalf("DoorVec(%d) rows = %d", id, len(dv))
			}
		}
	}
}

func TestDoorVecPanicsOnInternalNode(t *testing.T) {
	v := testvenue.Default()
	tree := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	e := tree.NewExplorer(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for DoorVec on internal node")
		}
	}()
	e.DoorVec(tree.Root())
}

func TestPointToPointPanicsOnSamePartition(t *testing.T) {
	v := testvenue.TwoRooms()
	tree := MustBuild(v, DefaultOptions())
	e := tree.NewExplorer(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for same-partition PointToPoint")
		}
	}()
	e.PointToPoint(e.PointOffsetsAppend(nil, v.Partition(0).Rect.Center()), v.Partition(0).Rect.Center(), 0)
}

func TestExplorerMemoization(t *testing.T) {
	v := testvenue.Default()
	tree := MustBuild(v, DefaultOptions())
	e := tree.NewExplorer(v.Rooms()[0])
	n := tree.Root()
	a := e.ADVec(n)
	b := e.ADVec(n)
	if &a[0] != &b[0] && len(a) > 0 {
		t.Fatal("ADVec not memoized: distinct backing arrays returned")
	}
}

// TestExplorerDistancesStableUnderQueryOrder exercises memoization paths:
// querying nodes in different orders must yield identical values.
func TestExplorerDistancesStableUnderQueryOrder(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	tree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	src := v.Rooms()[3]
	forward := tree.NewExplorer(src)
	backward := tree.NewExplorer(src)
	var fwd, bwd []float64
	for id := 0; id < tree.NumNodes(); id++ {
		fwd = append(fwd, forward.MinToNode(NodeID(id)))
	}
	for id := tree.NumNodes() - 1; id >= 0; id-- {
		bwd = append(bwd, backward.MinToNode(NodeID(id)))
	}
	for i := range fwd {
		j := len(bwd) - 1 - i
		if fwd[i] != bwd[j] {
			t.Fatalf("node %d: %v (forward) != %v (backward)", i, fwd[i], bwd[j])
		}
	}
}

// TestIPTreeClimbMatchesVivid compares the two pathADVec implementations on
// every (source, node) combination of a mid-size venue.
func TestIPTreeClimbMatchesVivid(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2, InterRoomDoors: true})
	vt := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	// The trees share construction except for the ancestor matrices, so
	// node IDs align.
	it := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: false})
	if vt.NumNodes() != it.NumNodes() {
		t.Fatalf("tree shapes differ: %d vs %d nodes", vt.NumNodes(), it.NumNodes())
	}
	for p := 0; p < v.NumPartitions(); p++ {
		ev := vt.NewExplorer(indoor.PartitionID(p))
		ei := it.NewExplorer(indoor.PartitionID(p))
		for id := 0; id < vt.NumNodes(); id++ {
			dv := ev.MinToNode(NodeID(id))
			di := ei.MinToNode(NodeID(id))
			if !almostEq(dv, di) {
				t.Fatalf("src %d node %d: vivid %v != ip %v", p, id, dv, di)
			}
		}
	}
}

func TestMinToPartitionSelf(t *testing.T) {
	v := testvenue.Corridor3()
	tree := MustBuild(v, DefaultOptions())
	for p := 0; p < v.NumPartitions(); p++ {
		e := tree.NewExplorer(indoor.PartitionID(p))
		if got := e.PointToPartition(nil, indoor.PartitionID(p)); got != 0 {
			t.Fatalf("PointToPartition(nil, self) = %v", got)
		}
	}
}

// TestExplorerOnLargeVenueSample spot-checks explorer exactness on a
// generated-scale venue against the oracle.
func TestExplorerOnLargeVenueSample(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 30, Levels: 4, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	g := d2d.New(v)
	rooms := v.Rooms()
	for i := 0; i < 10; i++ {
		src := rooms[(i*37)%len(rooms)]
		e := tree.NewExplorer(src)
		for j := 0; j < 10; j++ {
			dst := rooms[(j*53+11)%len(rooms)]
			want := g.PartitionToPartition(src, dst)
			got := e.PointToPartition(nil, dst)
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("src %d dst %d: %v != oracle %v", src, dst, got, want)
			}
		}
	}
}
