package vip

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

func TestSerializeRoundTrip(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	loaded, err := Load(bytes.NewReader(savePagedBytes(t, orig, 0)), v)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumNodes() != orig.NumNodes() || loaded.Root() != orig.Root() {
		t.Fatalf("shape mismatch after round trip")
	}
	// Every partition-to-partition distance must survive the round trip.
	rng := rand.New(rand.NewSource(3))
	n := v.NumPartitions()
	for trial := 0; trial < 100; trial++ {
		a := indoor.PartitionID(rng.Intn(n))
		b := indoor.PartitionID(rng.Intn(n))
		if got, want := loaded.DistPartitionToPartition(a, b), orig.DistPartitionToPartition(a, b); !almostEq(got, want) {
			t.Fatalf("distance %d->%d: loaded %v, original %v", a, b, got, want)
		}
	}
	// Point queries and the lazily rebuilt graph also work.
	p := v.RandomPointIn(1, 0.3, 0.7)
	q := v.RandomPointIn(5, 0.6, 0.2)
	if got, want := loaded.DistPointToPoint(p, 1, q, 5), orig.DistPointToPoint(p, 1, q, 5); !almostEq(got, want) {
		t.Fatalf("point distance: %v vs %v", got, want)
	}
	if loaded.Graph() == nil {
		t.Fatal("lazy graph rebuild failed")
	}
}

func TestSerializeIPTreeRoundTrip(t *testing.T) {
	v := testvenue.Corridor3()
	orig := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: false})
	loaded, err := Load(bytes.NewReader(savePagedBytes(t, orig, 0)), v)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < v.NumPartitions(); a++ {
		for b := 0; b < v.NumPartitions(); b++ {
			got := loaded.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID(b))
			want := orig.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID(b))
			if !almostEq(got, want) {
				t.Fatalf("IP distance %d->%d: %v vs %v", a, b, got, want)
			}
		}
	}
}

func TestReadFromRejectsWrongVenue(t *testing.T) {
	v1 := testvenue.Corridor3()
	v2 := testvenue.TwoRooms()
	tree := MustBuild(v1, DefaultOptions())
	if _, err := Load(bytes.NewReader(savePagedBytes(t, tree, 0)), v2); err == nil {
		t.Fatal("expected error loading tree against a different venue")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream"), testvenue.TwoRooms()); err == nil {
		t.Fatal("expected decode error")
	}
}
