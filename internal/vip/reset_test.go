package vip

import (
	"math"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// TestExplorerResetMatchesFresh pins the Reset contract: one explorer,
// reset through a seeded sequence of source partitions, returns from each
// ADVec, DoorVec, MinToNode, PointToPartition and DoorToPartition the value
// a fresh explorer at the same source returns, bit for bit, and reports
// the same RetainedBytes. Each source reads a random subset of nodes and
// partitions in random order, so a memo entry the last source left behind
// would be read by a later one. It covers the 3-level grid (resident and
// paged at 64-byte pages, whose straddling rows go through rowBuf), MC and
// CH, and checks after every Reset that the explorer's storage obeys the
// trim rule.
func TestExplorerResetMatchesFresh(t *testing.T) {
	grid := MustBuild(testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 3, InterRoomDoors: true}),
		Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	cases := []struct {
		name    string
		tree    *Tree
		sources int
	}{
		{"grid", grid, 60},
		{"grid-paged", openPaged64(t, grid), 60},
		{"MC", MustBuild(venues.MelbourneCentral(), DefaultOptions()), 40},
		{"CH", MustBuild(venues.Chadstone(), DefaultOptions()), 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			tree := tc.tree
			np := tree.Venue().NumPartitions()
			var e *Explorer
			for s := 0; s < tc.sources; s++ {
				src := indoor.PartitionID(rng.Intn(np))
				if e == nil {
					e = tree.NewExplorer(src)
				} else {
					prevCells, prevVec := e.nCells, e.nVec
					e.Reset(src)
					checkRetained(t, "cells", cap(e.cells), prevCells)
					checkRetained(t, "touched", cap(e.touched), prevVec)
				}
				compareExplorers(t, rng, tree, e, tree.NewExplorer(src))
			}
		})
	}
}

// checkRetained fails when a block kept across a Reset is smaller than the
// last source's need or oversized under the trim rule.
func checkRetained(t *testing.T, name string, capacity, need int) {
	t.Helper()
	if capacity < need || (capacity > minRetain && capacity > trimFactor*need) {
		t.Fatalf("after Reset: cap(%s) = %d for a need of %d", name, capacity, need)
	}
}

// compareExplorers runs one random sequence of reads on got and want,
// explorers at the same source, and fails on the first value that differs
// in any bit, or on differing RetainedBytes at the end.
func compareExplorers(t *testing.T, rng *rand.Rand, tree *Tree, got, want *Explorer) {
	t.Helper()
	src := want.Source()
	if got.Source() != src || len(got.SrcDoors()) != len(want.SrcDoors()) {
		t.Fatalf("src %d: reset explorer at %d with %d doors, want %d", src, got.Source(), len(got.SrcDoors()), len(want.SrcDoors()))
	}
	np := tree.Venue().NumPartitions()
	off := randomOffsets(rng, tree, src)
	same := func(what string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("src %d %s: reset %v (%x), fresh %v (%x)", src, what, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	sameVec := func(what string, a, b [][]float64) {
		if len(a) != len(b) {
			t.Fatalf("src %d %s: %d rows, fresh %d", src, what, len(a), len(b))
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				t.Fatalf("src %d %s row %d: %d cells, fresh %d", src, what, i, len(a[i]), len(b[i]))
			}
			for j := range a[i] {
				same(what, a[i][j], b[i][j])
			}
		}
	}
	for k := rng.Intn(3 * np); k >= 0; k-- {
		n := NodeID(rng.Intn(tree.NumNodes()))
		f := indoor.PartitionID(rng.Intn(np))
		switch rng.Intn(5) {
		case 0:
			sameVec("ADVec", got.ADVec(n), want.ADVec(n))
		case 1:
			leaf := tree.leafOf[f]
			sameVec("DoorVec", got.DoorVec(leaf), want.DoorVec(leaf))
		case 2:
			same("MinToNode", got.MinToNode(n), want.MinToNode(n))
		case 3:
			same("PointToPartition(nil)", got.PointToPartition(nil, f), want.PointToPartition(nil, f))
			same("PointToPartition", got.PointToPartition(off, f), want.PointToPartition(off, f))
		case 4:
			if d := len(want.SrcDoors()); d > 0 {
				i := rng.Intn(d)
				same("DoorToPartition", got.DoorToPartition(i, f), want.DoorToPartition(i, f))
			}
		}
	}
	if a, b := got.RetainedBytes(), want.RetainedBytes(); a != b {
		t.Fatalf("src %d: RetainedBytes reset %d, fresh %d", src, a, b)
	}
}
