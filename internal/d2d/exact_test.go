package d2d

import (
	"fmt"
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

// pointPair is one located route query.
type pointPair struct {
	p, q   geom.Point
	pp, qp indoor.PartitionID
}

// pointPairs draws n point pairs in random partitions of v from seed.
func pointPairs(v *indoor.Venue, n int, seed int64) []pointPair {
	rng := rand.New(rand.NewSource(seed))
	k := v.NumPartitions()
	out := make([]pointPair, n)
	for i := range out {
		r := &out[i]
		r.pp, r.qp = indoor.PartitionID(rng.Intn(k)), indoor.PartitionID(rng.Intn(k))
		r.p = v.RandomPointIn(r.pp, rng.Float64(), rng.Float64())
		r.q = v.RandomPointIn(r.qp, rng.Float64(), rng.Float64())
	}
	return out
}

func (r pointPair) route(g *Graph) ([]indoor.DoorID, float64) {
	return g.PointRoute(r.p, r.pp, r.q, r.qp)
}

// TestRouteTreesMatchFullSearch pins the published route tree of every
// source door of the test venues, MC and CH to a fresh complete
// FromDoorWithParents: every distance bit for bit and every parent, so
// every parent chain. A warm PointRoute call returns the same bits as the
// first, cold one.
func TestRouteTreesMatchFullSearch(t *testing.T) {
	vs := exactVenues()
	for _, name := range []string{"MC", "CH"} {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		vs[name] = v
	}
	for name, v := range vs {
		g := New(v)
		for a := 0; a < v.NumDoors(); a++ {
			src := indoor.DoorID(a)
			tr := g.tree(src)
			want, wantParent := g.FromDoorWithParents(src)
			for d := range want {
				if math.Float64bits(tr.dist[d]) != math.Float64bits(want[d]) || tr.parent[d] != wantParent[d] {
					t.Fatalf("%s: tree from %d at door %d: dist %v parent %d, full search %v %d",
						name, a, d, tr.dist[d], tr.parent[d], want[d], wantParent[d])
				}
			}
			if g.tree(src) != tr {
				t.Fatalf("%s: tree from %d was published twice", name, a)
			}
		}
		fresh := New(v)
		for _, r := range pointPairs(v, 60, 5) {
			coldPath, coldDist := r.route(fresh)
			warmPath, warmDist := r.route(fresh)
			if math.Float64bits(coldDist) != math.Float64bits(warmDist) || !slices.Equal(coldPath, warmPath) {
				t.Fatalf("%s: PointRoute%+v cold %v %v, warm %v %v", name, r, coldPath, coldDist, warmPath, warmDist)
			}
		}
	}
}

// TestRouteTreesConcurrentFirstUse: goroutines racing to the first use of
// a fresh CH graph's route sources all get the routes of a sequential run.
func TestRouteTreesConcurrentFirstUse(t *testing.T) {
	v, err := venues.ByName("CH")
	if err != nil {
		t.Fatal(err)
	}
	pairs := pointPairs(v, 24, 17)
	type route struct {
		path []indoor.DoorID
		dist float64
	}
	want := make([]route, len(pairs))
	seq := New(v)
	for i, r := range pairs {
		want[i].path, want[i].dist = r.route(seq)
	}
	g := New(v)
	const workers = 8
	start := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			<-start
			for i, r := range pairs {
				path, dist := r.route(g)
				if math.Float64bits(dist) != math.Float64bits(want[i].dist) || !slices.Equal(path, want[i].path) {
					errs <- fmt.Errorf("pair %d: concurrent %v %v, sequential %v %v", i, path, dist, want[i].path, want[i].dist)
					return
				}
			}
			errs <- nil
		}()
	}
	close(start)
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
