package vip

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// openPaged64 re-opens tree as a paged tree over 64-byte pages with an
// unlimited cache; the tree is closed when the test ends.
func openPaged64(t testing.TB, tree *Tree) *Tree {
	t.Helper()
	data := savePagedBytes(t, tree, 64)
	paged, err := OpenPaged(bytes.NewReader(data), int64(len(data)), tree.Venue(), PagedOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { paged.Close() })
	return paged
}

// vectorMin is the bound read off a full vector: the least off[i] + v[i][j]
// (off nil meaning zero offsets), in the order the pre-table bound took it.
func vectorMin(v [][]float64, off []float64) float64 {
	best := math.Inf(1)
	for i, row := range v {
		for _, d := range row {
			s := d
			if off != nil {
				s = off[i] + d
			}
			if s < best {
				best = s
			}
		}
	}
	return best
}

// randomOffsets draws per-door offsets for src, as a client's in-partition
// distances would be.
func randomOffsets(rng *rand.Rand, tree *Tree, src indoor.PartitionID) []float64 {
	off := make([]float64, len(tree.Venue().Partition(src).Doors))
	for i := range off {
		off[i] = rng.Float64() * 20
	}
	return off
}

// TestNodeBoundsMatchVectors pins the bound table's exactness: from every
// source partition, for every node off its path (every node a traversal
// could push at a nonzero bound), MinToNode and PointToNode on a fresh
// explorer — which reads the table and builds no vector for the node —
// equal the minimum over the node's full vector on a second explorer (on
// the resident tree: paged vectors equal resident ones bit for bit, see
// TestPagedStraddlingRowsMatchResident), bit for bit. It covers vivid and IP-trees, resident and paged at 64-byte
// pages, on MC and three structurally random venues.
//
// The fresh explorer visits nodes root first. A bound builds only the
// vectors of the node's parent and of nodes on the source path, so no
// node's vector exists when its own bound is taken; the test checks that.
func TestNodeBoundsMatchVectors(t *testing.T) {
	vs := []struct {
		name string
		v    *indoor.Venue
		o    Options
	}{
		{"MC", venues.MelbourneCentral(), Options{}},
		// Small fanouts give the small random venues deep trees.
		{"random17", testvenue.Random(17), Options{LeafFanout: 2, NodeFanout: 2}},
		{"random42", testvenue.Random(42), Options{LeafFanout: 2, NodeFanout: 2}},
		{"random99", testvenue.Random(99), Options{LeafFanout: 2, NodeFanout: 2}},
	}
	for _, vc := range vs {
		for _, vivid := range []bool{true, false} {
			o := vc.o
			o.Vivid = vivid
			built := MustBuild(vc.v, o)
			for _, tc := range []struct {
				name string
				tree *Tree
			}{{"resident", built}, {"paged", openPaged64(t, built)}} {
				name := vc.name + "/" + map[bool]string{true: "vivid", false: "ip"}[vivid] + "/" + tc.name
				t.Run(name, func(t *testing.T) {
					checkNodeBounds(t, tc.tree, built, rand.New(rand.NewSource(7)))
				})
			}
		}
	}
}

// checkNodeBounds compares tree's table bounds from every source with the
// vector minima of resident, a resident tree with the same structure.
func checkNodeBounds(t *testing.T, tree, resident *Tree, rng *rand.Rand) {
	order := make([]NodeID, 0, tree.NumNodes())
	for i := range tree.nodes {
		order = append(order, NodeID(i))
	}
	sort.SliceStable(order, func(i, j int) bool { return tree.depth[order[i]] < tree.depth[order[j]] })
	tableReads := 0
	for p := 0; p < tree.Venue().NumPartitions(); p++ {
		src := indoor.PartitionID(p)
		e, ref := tree.NewExplorer(src), resident.NewExplorer(src)
		off := randomOffsets(rng, tree, src)
		for _, n := range order {
			if ref.onPath(n) {
				continue
			}
			if e.adVec[n] != nil {
				t.Fatalf("src %d node %d: vector built before the node's bound", src, n)
			}
			gotMin, gotPt := e.MinToNode(n), e.PointToNode(off, n)
			if e.adVec[n] != nil {
				t.Fatalf("src %d node %d: the bound built the node's vector", src, n)
			}
			tableReads++
			v := ref.ADVec(n)
			wantMin, wantPt := vectorMin(v, nil), vectorMin(v, off)
			if math.Float64bits(gotMin) != math.Float64bits(wantMin) {
				t.Fatalf("src %d node %d: MinToNode %v (%x), vector min %v (%x)",
					src, n, gotMin, math.Float64bits(gotMin), wantMin, math.Float64bits(wantMin))
			}
			if math.Float64bits(gotPt) != math.Float64bits(wantPt) {
				t.Fatalf("src %d node %d: PointToNode %v (%x), vector min %v (%x)",
					src, n, gotPt, math.Float64bits(gotPt), wantPt, math.Float64bits(wantPt))
			}
			// An explorer that has memoized the vector gives the same
			// bounds.
			if m, pt := ref.MinToNode(n), ref.PointToNode(off, n); math.Float64bits(m) != math.Float64bits(wantMin) ||
				math.Float64bits(pt) != math.Float64bits(wantPt) {
				t.Fatalf("src %d node %d: memoized bounds %v/%v, want %v/%v", src, n, m, pt, wantMin, wantPt)
			}
		}
	}
	if tableReads == 0 {
		t.Fatal("no off-path node; the test proves nothing")
	}
}

// TestBoundTableConcurrentFirstUse races eight goroutines, each with its own
// explorers, to the first use of the same bound-table rows on one fresh
// resident and one fresh paged tree (64-byte pages, so row derivation
// faults pages concurrently too). Under -race this pins the table's
// publish-once path; every bound must equal the sequential one.
func TestBoundTableConcurrentFirstUse(t *testing.T) {
	v := testvenue.Random(42)
	opts := Options{LeafFanout: 2, NodeFanout: 2, Vivid: true}
	ref := MustBuild(v, opts)
	n := v.NumPartitions()
	offs := make([][]float64, n)
	want := make([][][2]float64, n)
	rng := rand.New(rand.NewSource(11))
	for p := 0; p < n; p++ {
		src := indoor.PartitionID(p)
		offs[p] = randomOffsets(rng, ref, src)
		want[p] = make([][2]float64, ref.NumNodes())
		for id := range want[p] {
			e := ref.NewExplorer(src)
			want[p][id] = [2]float64{e.MinToNode(NodeID(id)), e.PointToNode(offs[p], NodeID(id))}
		}
	}

	trees := []struct {
		name string
		tree *Tree
	}{{"resident", MustBuild(v, opts)}, {"paged", openPaged64(t, ref)}}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for _, tc := range trees {
				for p := 0; p < n; p++ {
					src := indoor.PartitionID(p)
					for id := range want[p] {
						e := tc.tree.NewExplorer(src)
						got := [2]float64{e.MinToNode(NodeID(id)), e.PointToNode(offs[p], NodeID(id))}
						if math.Float64bits(got[0]) != math.Float64bits(want[p][id][0]) ||
							math.Float64bits(got[1]) != math.Float64bits(want[p][id][1]) {
							t.Errorf("goroutine %d, %s: src %d node %d: bounds %v, sequential %v", g, tc.name, p, id, got, want[p][id])
							return
						}
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for _, tc := range trees {
		rows := 0
		for _, nd := range tc.tree.nodes {
			for k := range nd.cmin {
				if nd.cmin[k].Load() != nil {
					rows++
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s: no bound-table row was published; the race exercised nothing", tc.name)
		}
	}
}
