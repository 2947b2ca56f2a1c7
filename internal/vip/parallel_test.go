package vip

import (
	"bytes"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// saveBytes serializes a tree for byte-level comparison. The small page
// size is irrelevant to the cells; it only keeps the zero padding short.
func saveBytes(t *testing.T, tree *Tree) []byte {
	t.Helper()
	return savePagedBytes(t, tree, 64)
}

// TestBuildWorkersByteIdentical proves parallel construction exact: the
// serialized tree — structure and every distance-matrix cell — is
// byte-identical across worker counts, for both vivid and plain trees.
func TestBuildWorkersByteIdentical(t *testing.T) {
	for _, vivid := range []bool{true, false} {
		v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 3, InterRoomDoors: true})
		seq := MustBuild(v, Options{Vivid: vivid, Workers: 1})
		want := saveBytes(t, seq)
		for _, workers := range []int{0, 2, 3, 7} {
			par := MustBuild(v, Options{Vivid: vivid, Workers: workers})
			if err := par.CheckInvariants(); err != nil {
				t.Fatalf("vivid=%v workers=%d: invariants: %v", vivid, workers, err)
			}
			if got := saveBytes(t, par); !bytes.Equal(got, want) {
				t.Errorf("vivid=%v: Build(Workers:%d) differs from Build(Workers:1): %d vs %d bytes",
					vivid, workers, len(got), len(want))
			}
		}
	}
}

// TestBuildWorkersDistancesMatch cross-checks a parallel-built tree's
// distances against a sequential build directly (not just via gob).
func TestBuildWorkersDistancesMatch(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	seq := MustBuild(v, Options{Workers: 1, Vivid: true})
	par := MustBuild(v, Options{Workers: 4, Vivid: true})
	for a := 0; a < v.NumPartitions(); a++ {
		for b := 0; b < v.NumPartitions(); b++ {
			pa, pb := indoor.PartitionID(a), indoor.PartitionID(b)
			ds := seq.DistPartitionToPartition(pa, pb)
			dp := par.DistPartitionToPartition(pa, pb)
			if ds != dp {
				t.Fatalf("dist(%d,%d): sequential %v, parallel %v", a, b, ds, dp)
			}
		}
	}
}

// TestConcurrentReads hammers one shared tree from many goroutines; run
// under -race this validates the documented "safe for concurrent reads
// after Build" contract.
func TestConcurrentReads(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	tree := MustBuild(v, DefaultOptions())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				a := indoor.PartitionID((g + i) % v.NumPartitions())
				b := indoor.PartitionID((g * 7) % v.NumPartitions())
				_ = tree.DistPartitionToPartition(a, b)
				e := tree.NewExplorer(a)
				_ = e.PointToPartition(nil, b)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
