package vip

import (
	"bytes"
	"sync"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// TestGraphConcurrentFirstUse covers the contract audited for the paged-store
// release: a tree that came from Load (not Build) materializes its door graph
// on first use, and two concurrent first queries must not race on that
// initialization. The guard is graphOnce — the loser of the race blocks in
// Once.Do until the winner's construction completes, which also gives it the
// happens-before edge on the graph's memory. Run under -race, every caller
// must see the same fully-built *d2d.Graph.
func TestGraphConcurrentFirstUse(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	built := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	loaded, err := Load(bytes.NewReader(savePagedBytes(t, built, 0)), v)
	if err != nil {
		t.Fatal(err)
	}

	// Both graph readers and matrix readers, all starting together: the mix
	// models a burst of first queries right after an index-file restart.
	const callers = 16
	graphs := make([]*d2d.Graph, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			g := loaded.Graph()
			if g == nil {
				t.Errorf("caller %d: Graph() returned nil", i)
				return
			}
			graphs[i] = g
			// Exercise the graph and the tree together, as route queries do.
			d := indoor.DoorID(i % v.NumDoors())
			if dist := g.FromDoor(d); len(dist) != v.NumDoors() {
				t.Errorf("caller %d: FromDoor returned %d rows", i, len(dist))
			}
			a := indoor.PartitionID(i % v.NumPartitions())
			loaded.DistPartitionToPartition(a, 0)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if graphs[i] != graphs[0] {
			t.Fatalf("caller %d observed a different graph instance", i)
		}
	}
}

// TestPagedConcurrentQueries drives concurrent queries through a freshly
// opened paged tree under a starved cache, so page faults, evictions, and
// re-faults interleave across goroutines. Run under -race this pins the
// page-cache fault path, not just the graph latch.
func TestPagedConcurrentQueries(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	built := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	data := savePagedBytes(t, built, 64)
	paged, err := OpenPaged(bytes.NewReader(data), int64(len(data)), v, PagedOptions{CacheBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	n := v.NumPartitions()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for a := 0; a < n; a++ {
				got := paged.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID((a+i)%n))
				want := built.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID((a+i)%n))
				if got != want {
					t.Errorf("goroutine %d: dist %d->%d = %v, want %v", i, a, (a+i)%n, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := paged.PageCacheStats(); st.Misses == 0 {
		t.Error("no page faults recorded; the test exercised nothing")
	}
}
