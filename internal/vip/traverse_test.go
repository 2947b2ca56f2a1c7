package vip

import (
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// recordingFrontier logs every hook call so tests can assert Expand's
// deterministic order and filtering.
type recordingFrontier struct {
	visited   map[NodeID]bool
	wanted    map[indoor.PartitionID]bool
	nodes     []NodeID
	facs      []indoor.PartitionID
	nodePrio  map[NodeID]float64
	facPrio   map[indoor.PartitionID]float64
	wantCalls []indoor.PartitionID
}

func newRecordingFrontier() *recordingFrontier {
	return &recordingFrontier{
		visited:  map[NodeID]bool{},
		wanted:   map[indoor.PartitionID]bool{},
		nodePrio: map[NodeID]float64{},
		facPrio:  map[indoor.PartitionID]float64{},
	}
}

func (f *recordingFrontier) Visit(n NodeID) bool {
	if f.visited[n] {
		return false
	}
	f.visited[n] = true
	return true
}

func (f *recordingFrontier) PushNode(n NodeID, prio float64) {
	f.nodes = append(f.nodes, n)
	f.nodePrio[n] = prio
}

func (f *recordingFrontier) Wanted(p indoor.PartitionID) bool {
	f.wantCalls = append(f.wantCalls, p)
	return f.wanted[p]
}

func (f *recordingFrontier) PushFacility(p indoor.PartitionID, prio float64) {
	f.facs = append(f.facs, p)
	f.facPrio[p] = prio
}

// TestExpandLeaf: expanding the source's own leaf pushes the unvisited
// parent first, skips the source partition without consulting Wanted, and
// pushes exactly the wanted co-located partitions at their min bounds.
func TestExpandLeaf(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	self := v.Rooms()[0]
	leaf := tree.Leaf(self)
	e := tree.NewExplorer(self)

	fr := newRecordingFrontier()
	for _, p := range tree.Partitions(leaf) {
		fr.wanted[p] = true // want everything; the source must still be skipped
	}
	tree.Expand(e, self, leaf, fr)

	parent := tree.Parent(leaf)
	if parent != NoNode {
		if len(fr.nodes) != 1 || fr.nodes[0] != parent {
			t.Fatalf("pushed nodes %v, want exactly the parent %d", fr.nodes, parent)
		}
		if fr.nodePrio[parent] != e.MinToNode(parent) {
			t.Fatalf("parent prio %v, want MinToNode %v", fr.nodePrio[parent], e.MinToNode(parent))
		}
	}
	for _, p := range fr.wantCalls {
		if p == self {
			t.Fatal("Wanted consulted for the source partition; it must be skipped outright")
		}
	}
	want := 0
	for _, p := range tree.Partitions(leaf) {
		if p != self {
			want++
		}
	}
	if len(fr.facs) != want {
		t.Fatalf("pushed %d facilities, want %d (all leaf partitions except the source)", len(fr.facs), want)
	}
	for _, p := range fr.facs {
		if fr.facPrio[p] != e.PointToPartition(nil, p) {
			t.Fatalf("facility %d prio %v, want PointToPartition(nil, ·) %v", p, fr.facPrio[p], e.PointToPartition(nil, p))
		}
	}
}

// TestExpandUnwantedFiltered: partitions the Frontier does not want are
// never pushed.
func TestExpandUnwantedFiltered(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	self := v.Rooms()[0]
	leaf := tree.Leaf(self)
	e := tree.NewExplorer(self)

	fr := newRecordingFrontier() // wants nothing
	tree.Expand(e, self, leaf, fr)
	if len(fr.facs) != 0 {
		t.Fatalf("pushed facilities %v despite wanting none", fr.facs)
	}
}

// TestExpandInternalNode: an internal node yields its unvisited children in
// tree order, and a second expansion of the same node yields nothing new.
func TestExpandInternalNode(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 2, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	self := v.Rooms()[0]
	e := tree.NewExplorer(self)
	root := tree.Root()
	if tree.IsLeaf(root) {
		t.Skip("fixture tree degenerated to a single leaf")
	}

	fr := newRecordingFrontier()
	fr.visited[root] = true // the node being expanded is already visited
	tree.Expand(e, self, root, fr)

	want := append([]NodeID(nil), tree.Children(root)...)
	if len(fr.nodes) != len(want) {
		t.Fatalf("pushed %v, want the %d children %v", fr.nodes, len(want), want)
	}
	for i, c := range want {
		if fr.nodes[i] != c {
			t.Fatalf("child order: pushed %v, want %v (tree order)", fr.nodes, want)
		}
		if fr.nodePrio[c] != e.MinToNode(c) {
			t.Fatalf("child %d prio %v, want MinToNode %v", c, fr.nodePrio[c], e.MinToNode(c))
		}
	}

	// Re-expansion pushes nothing: every neighbor is now visited.
	fr.nodes = nil
	tree.Expand(e, self, root, fr)
	if len(fr.nodes) != 0 {
		t.Fatalf("re-expansion pushed %v, want nothing", fr.nodes)
	}
}

// TestPointOffsetsAppendMatches: PointOffsetsAppend fills dst with exactly
// the in-partition door distances Venue.PointDoorDist computes, in
// SrcDoors order.
func TestPointOffsetsAppendMatches(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	self := v.Rooms()[1]
	e := tree.NewExplorer(self)
	pt := v.Partition(self).Rect.Center()

	var want []float64
	for _, d := range e.SrcDoors() {
		want = append(want, v.PointDoorDist(self, pt, d))
	}
	got := e.PointOffsetsAppend(make([]float64, 0, 1), pt) // force a regrow mid-append
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offset[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Reuse keeps the backing array: appending into a big-enough buffer
	// allocates nothing and yields the same values.
	buf := make([]float64, 0, len(want)+4)
	got2 := e.PointOffsetsAppend(buf[:0], pt)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("reused offset[%d] = %v, want %v", i, got2[i], want[i])
		}
	}
}
