package d2d

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// chain returns the door sequence from the search root to d by following
// parent, or nil when d is unreachable.
func chain(parent []indoor.DoorID, dist []float64, d indoor.DoorID) []indoor.DoorID {
	if math.IsInf(dist[d], 1) {
		return nil
	}
	var rev []indoor.DoorID
	for ; d != -1; d = parent[d] {
		rev = append(rev, d)
	}
	slices.Reverse(rev)
	return rev
}

// fullPointRoute is PointRoute's specification: one complete Dijkstra per
// source door, every (source door, target door) pair scored, first strict
// improvement wins.
func fullPointRoute(g *Graph, p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) ([]indoor.DoorID, float64) {
	v := g.venue
	if pp == qp {
		return nil, v.IntraPointDist(pp, p, q)
	}
	bestDist := Unreachable
	var bestPath []indoor.DoorID
	for _, sd := range v.Partition(pp).Doors {
		off := v.PointDoorDist(pp, p, sd)
		dist, parent := g.FromDoorWithParents(sd)
		for _, td := range v.Partition(qp).Doors {
			total := off + dist[td] + v.PointDoorDist(qp, q, td)
			if total >= bestDist {
				continue
			}
			if c := chain(parent, dist, td); len(c) > 0 && c[0] == sd {
				bestDist, bestPath = total, c
			}
		}
	}
	return bestPath, bestDist
}

// exactVenues are the small venues whose every door pair the route pins
// sweep.
func exactVenues() map[string]*indoor.Venue {
	return map[string]*indoor.Venue{
		"two-rooms":  testvenue.TwoRooms(),
		"corridor-3": testvenue.Corridor3(),
		"multi-door": testvenue.MultiDoorRooms(),
		"grid":       testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 3, InterRoomDoors: true}),
		"random":     testvenue.Random(5),
	}
}

// TestPathMatchesFullSearch pins Path, for every door pair of the test
// venues, to the parent chain of a complete FromDoorWithParents.
func TestPathMatchesFullSearch(t *testing.T) {
	for name, v := range exactVenues() {
		g := New(v)
		for a := 0; a < v.NumDoors(); a++ {
			src := indoor.DoorID(a)
			dist, parent := g.FromDoorWithParents(src)
			for b := 0; b < v.NumDoors(); b++ {
				dst := indoor.DoorID(b)
				want := chain(parent, dist, dst)
				if got := g.Path(src, dst); !slices.Equal(got, want) {
					t.Fatalf("%s: Path(%d, %d) = %v, full search %v", name, a, b, got, want)
				}
			}
		}
	}
}

// TestEarlyExitMatchesFullSearch: a search that stops once its targets
// are settled leaves, for every target, the distance (bit for bit) and the
// parent chain of a complete FromDoorWithParents — from every source door
// of the test venues, with each partition's doors as the target set.
func TestEarlyExitMatchesFullSearch(t *testing.T) {
	for name, v := range exactVenues() {
		g := New(v)
		for a := 0; a < v.NumDoors(); a++ {
			src := indoor.DoorID(a)
			full, fullParent := g.FromDoorWithParents(src)
			for pi := range v.Partitions {
				targets := v.Partitions[pi].Doors
				dist, parent := g.dijkstra([]indoor.DoorID{src}, []float64{0}, true, targets)
				for _, td := range targets {
					if math.Float64bits(dist[td]) != math.Float64bits(full[td]) {
						t.Fatalf("%s: %d -> %d: early exit %v, full %v", name, a, td, dist[td], full[td])
					}
					if got, want := chain(parent, dist, td), chain(fullParent, full, td); !slices.Equal(got, want) {
						t.Fatalf("%s: %d -> %d: early-exit chain %v, full %v", name, a, td, got, want)
					}
				}
			}
		}
	}
}

// TestPointRouteMatchesFullSearch pins PointRoute's path and distance, bit
// for bit, to fullPointRoute: on every partition pair of the test venues
// and on a seeded sample of MC and CH point pairs.
func TestPointRouteMatchesFullSearch(t *testing.T) {
	check := func(t *testing.T, g *Graph, p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) {
		t.Helper()
		gotPath, gotDist := g.PointRoute(p, pp, q, qp)
		wantPath, wantDist := fullPointRoute(g, p, pp, q, qp)
		if math.Float64bits(gotDist) != math.Float64bits(wantDist) || !slices.Equal(gotPath, wantPath) {
			t.Fatalf("PointRoute(%v@%d -> %v@%d) = %v %v, full search %v %v",
				p, pp, q, qp, gotPath, gotDist, wantPath, wantDist)
		}
	}
	for name, v := range exactVenues() {
		t.Run(name, func(t *testing.T) {
			g := New(v)
			rng := rand.New(rand.NewSource(3))
			for a := 0; a < v.NumPartitions(); a++ {
				for b := 0; b < v.NumPartitions(); b++ {
					pa, pb := indoor.PartitionID(a), indoor.PartitionID(b)
					check(t, g, v.RandomPointIn(pa, rng.Float64(), rng.Float64()), pa,
						v.RandomPointIn(pb, rng.Float64(), rng.Float64()), pb)
				}
			}
		})
	}
	for _, name := range []string{"MC", "CH"} {
		t.Run(name, func(t *testing.T) {
			v, err := venues.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g := New(v)
			rng := rand.New(rand.NewSource(11))
			n := v.NumPartitions()
			for i := 0; i < 150; i++ {
				pp, qp := indoor.PartitionID(rng.Intn(n)), indoor.PartitionID(rng.Intn(n))
				check(t, g, v.RandomPointIn(pp, rng.Float64(), rng.Float64()), pp,
					v.RandomPointIn(qp, rng.Float64(), rng.Float64()), qp)
			}
		})
	}
}
