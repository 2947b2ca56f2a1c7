package d2d

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// closing returns the all-open mask of v with the listed doors closed.
func closing(v *indoor.Venue, closed ...indoor.DoorID) []bool {
	open := make([]bool, v.NumDoors())
	for i := range open {
		open[i] = true
	}
	for _, d := range closed {
		open[d] = false
	}
	return open
}

func centreOf(v *indoor.Venue, p indoor.PartitionID) geom.Point { return v.Partition(p).Rect.Center() }

func TestMaskedMatchesStaticWhenOpen(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2, InterRoomDoors: true})
	g := New(v)
	m := g.Masked(closing(v))
	if !slices.Equal(m.off, g.off) || !slices.Equal(m.nbr, g.nbr) || !slices.Equal(m.wt, g.wt) {
		t.Fatal("all-open mask changed the CSR")
	}
	rooms := v.Rooms()
	a, b := rooms[0], rooms[len(rooms)-1]
	got := m.PointToPoint(centreOf(v, a), a, centreOf(v, b), b)
	if want := g.PointToPoint(centreOf(v, a), a, centreOf(v, b), b); got != want {
		t.Fatalf("all-open masked PointToPoint = %v, static %v", got, want)
	}
}

func TestMaskedDetour(t *testing.T) {
	// MultiDoorRooms: R0 and R1 connect via an inner door (door 2) and via
	// the corridor. Closing the inner door forces the corridor detour.
	v := testvenue.MultiDoorRooms()
	g := New(v)
	p, q := geom.Pt(9, 10, 0), geom.Pt(11, 10, 0)
	open := g.Masked(closing(v)).PointToPoint(p, 1, q, 2)
	if !almostEq(open, 2) {
		t.Fatalf("open distance = %v, want 2 (inner door)", open)
	}
	closed := g.Masked(closing(v, 2)).PointToPoint(p, 1, q, 2)
	if closed <= open {
		t.Fatalf("distance with the inner door closed %v must exceed %v", closed, open)
	}
	// The detour runs through corridor doors d0 (2,5) and d1 (18,5).
	want := p.Dist(geom.Pt(2, 5, 0)) + geom.Pt(2, 5, 0).Dist(geom.Pt(18, 5, 0)) + geom.Pt(18, 5, 0).Dist(q)
	if !almostEq(closed, want) {
		t.Fatalf("detour distance = %v, want %v", closed, want)
	}
}

func TestMaskedUnreachable(t *testing.T) {
	// Corridor3: closing door 2 seals R2 (partition 3), its only door.
	v := testvenue.Corridor3()
	m := New(v).Masked(closing(v, 2))
	if d := m.PointToPoint(centreOf(v, 1), 1, centreOf(v, 3), 3); !math.IsInf(d, 1) {
		t.Fatalf("distance to sealed room = %v, want +Inf", d)
	}
	if d := m.PointToPartition(centreOf(v, 3), 3, 1); !math.IsInf(d, 1) {
		t.Fatalf("distance out of sealed room = %v, want +Inf", d)
	}
}

// checkClosedUnreachable fails unless dist, a search from src, leaves
// every closed door Unreachable.
func checkClosedUnreachable(t *testing.T, open []bool, dist []float64, src indoor.DoorID) {
	t.Helper()
	for d, ok := range open {
		if !ok && !math.IsInf(dist[d], 1) {
			t.Fatalf("closed door %d reached from door %d at %v", d, src, dist[d])
		}
	}
}

// TestMaskedGraphMatchesSnapshot pins Masked to the graph of the
// materialized snapshot. On each of MC's connected single-door closures,
// every distance from every open door is bit-identical to the snapshot
// graph's. Closing dead-end doors (the only door of a room) on MC and CH
// leaves every other door-to-door distance bit-identical. Closed doors are
// Unreachable, from and to.
func TestMaskedGraphMatchesSnapshot(t *testing.T) {
	v, err := venues.ByName("MC")
	if err != nil {
		t.Fatal(err)
	}
	g := New(v)
	const at = 3 * time.Hour
	for _, closed := range []indoor.DoorID{147, 149, 235, 237, 297, 298} {
		tt := temporal.NewTimetable(v)
		if err := tt.SetDoor(closed, temporal.Daily(9*time.Hour, 17*time.Hour)); err != nil {
			t.Fatal(err)
		}
		snap, doorMap, err := tt.Snapshot(at)
		if err != nil {
			t.Fatalf("closing door %d: %v", closed, err)
		}
		sg := New(snap)
		open := tt.Mask(at)
		m := g.Masked(open)
		for s := range v.Doors {
			src := indoor.DoorID(s)
			got := m.FromDoor(src)
			checkClosedUnreachable(t, open, got, src)
			if !open[s] {
				if i := slices.IndexFunc(got, func(d float64) bool { return !math.IsInf(d, 1) }); i >= 0 {
					t.Fatalf("closing door %d: door %d reached from it at %v", closed, i, got[i])
				}
				continue
			}
			want := sg.FromDoor(doorMap.Apply(src))
			for d, nd := range doorMap {
				if nd != indoor.NoDoor && math.Float64bits(got[d]) != math.Float64bits(want[nd]) {
					t.Fatalf("closing door %d: %d→%d masked %v, snapshot %v", closed, s, d, got[d], want[nd])
				}
			}
		}
	}

	for _, name := range []string{"MC", "CH"} {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := New(v)
		var deadEnds []indoor.DoorID
		for _, p := range v.Rooms() {
			if doors := v.Partition(p).Doors; len(doors) == 1 {
				deadEnds = append(deadEnds, doors[0])
			}
		}
		rng := rand.New(rand.NewSource(1))
		var closed []indoor.DoorID
		for _, i := range rng.Perm(len(deadEnds))[:3] {
			closed = append(closed, deadEnds[i])
		}
		open := closing(v, closed...)
		m := g.Masked(open)
		for s := range v.Doors {
			src := indoor.DoorID(s)
			got := m.FromDoor(src)
			checkClosedUnreachable(t, open, got, src)
			if !open[s] {
				continue
			}
			want := g.FromDoor(src)
			for d := range want {
				if open[d] && math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("%s with dead ends %v closed: %d→%d masked %v, open %v", name, closed, s, d, got[d], want[d])
				}
			}
		}
	}
}
