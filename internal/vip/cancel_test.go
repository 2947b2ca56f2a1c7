package vip

import (
	"context"
	"errors"
	"testing"

	"github.com/indoorspatial/ifls/internal/chaos"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// TestBuildContextCancelled: a context cancelled before Build starts must
// stop construction on both the sequential and the parallel matrix-fill
// paths, with an error matching the taxonomy and the stdlib cause.
func TestBuildContextCancelled(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 2, InterRoomDoors: true})
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := BuildContext(ctx, v, opts)
		if err == nil {
			t.Fatalf("workers=%d: cancelled BuildContext returned a tree", workers)
		}
		if !errors.Is(err, faults.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v does not match taxonomy", workers, err)
		}
	}
}

// TestBuildContextMidBuildCancel sweeps the matrix-fill checkpoints on the
// sequential path, where trip points are deterministic.
func TestBuildContextMidBuildCancel(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 2, InterRoomDoors: true})
	opts := DefaultOptions()
	opts.Workers = 1
	total := chaos.CountCheckpoints(func(ctx context.Context) {
		if _, err := BuildContext(ctx, v, opts); err != nil {
			t.Fatalf("non-tripping build errored: %v", err)
		}
	})
	if total < 2 {
		t.Fatalf("Build polled only %d checkpoints", total)
	}
	for _, n := range []int{1, total / 2, total} {
		c := chaos.CancelAtCheckpoint(n)
		if _, err := BuildContext(c, v, opts); !errors.Is(err, faults.ErrCancelled) {
			t.Fatalf("trip at checkpoint %d/%d: got %v, want ErrCancelled", n, total, err)
		}
	}
}

// TestBuildContextMidBuildCancelParallel trips a checkpoint on the
// parallel path; the worker latch must stop all goroutines and surface one
// cancellation error.
func TestBuildContextMidBuildCancelParallel(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 8, Levels: 2, InterRoomDoors: true})
	opts := DefaultOptions()
	opts.Workers = 4
	// Trip early; the exact checkpoint a worker observes is scheduling
	// dependent, but the outcome must always be a clean ErrCancelled.
	c := chaos.CancelAtCheckpoint(3)
	if _, err := BuildContext(c, v, opts); !errors.Is(err, faults.ErrCancelled) {
		t.Fatalf("parallel mid-build cancel: got %v, want ErrCancelled", err)
	}
}

// TestBuildContextBackgroundMatchesBuild: with a background context the
// context variant must be the exact same construction as plain Build.
func TestBuildContextBackgroundMatchesBuild(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	opts := DefaultOptions()
	opts.Workers = 1
	plain, err := Build(v, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := BuildContext(context.Background(), v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumNodes() != ctxed.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", plain.NumNodes(), ctxed.NumNodes())
	}
	// Distances must agree partition for partition.
	n := len(v.Partitions)
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := plain.DistPartitionToPartition(v.Partitions[i].ID, v.Partitions[j].ID)
			b := ctxed.DistPartitionToPartition(v.Partitions[i].ID, v.Partitions[j].ID)
			if a != b {
				t.Fatalf("DistPartitionToPartition(%d,%d): %v vs %v", i, j, a, b)
			}
		}
	}
}

// TestBuildErrorTaxonomy pins the malformed-input sentinels Build reports
// instead of panicking.
func TestBuildErrorTaxonomy(t *testing.T) {
	if _, err := Build(nil, DefaultOptions()); !errors.Is(err, faults.ErrMalformedVenue) {
		t.Errorf("Build(nil venue): got %v, want ErrMalformedVenue", err)
	}
	v := testvenue.Corridor3()
	bad := Options{LeafFanout: 1, NodeFanout: 1, Vivid: true}
	if _, err := Build(v, bad); !errors.Is(err, faults.ErrInvalidOptions) {
		t.Errorf("Build(bad fanouts): got %v, want ErrInvalidOptions", err)
	}
}
