package indoor_test

import (
	"testing"

	"github.com/indoorspatial/ifls/internal/difftest"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// lowestContaining is the specification PartitionAt promises: the minimum
// ID among all partitions whose rectangle contains pt (boundary inclusive),
// and how many partitions contain it.
func lowestContaining(v *indoor.Venue, pt geom.Point) (best indoor.PartitionID, n int) {
	best = indoor.NoPartition
	for i := range v.Partitions {
		if !v.Partitions[i].Rect.Contains(pt) {
			continue
		}
		n++
		if id := indoor.PartitionID(i); best == indoor.NoPartition || id < best {
			best = id
		}
	}
	return best, n
}

// boundaryPoints enumerates every tie-prone point of a venue: all four rect
// corners and edge midpoints of every partition, plus every door location.
// Corners on shared walls are contained by up to four partitions at once,
// and stacked venues repeat identical footprints across levels, so these
// points exercise exactly the overlaps random sampling never hits.
func boundaryPoints(v *indoor.Venue) []geom.Point {
	var pts []geom.Point
	for i := range v.Partitions {
		r := v.Partitions[i].Rect
		lv := r.Level()
		mx, my := (r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2
		pts = append(pts,
			geom.Pt(r.Min.X, r.Min.Y, lv), geom.Pt(r.Max.X, r.Min.Y, lv),
			geom.Pt(r.Min.X, r.Max.Y, lv), geom.Pt(r.Max.X, r.Max.Y, lv),
			geom.Pt(mx, r.Min.Y, lv), geom.Pt(mx, r.Max.Y, lv),
			geom.Pt(r.Min.X, my, lv), geom.Pt(r.Max.X, my, lv),
		)
	}
	for i := range v.Doors {
		pts = append(pts, v.Doors[i].Loc)
	}
	return pts
}

// TestBoundaryTieBreakLowestID proves the documented tie-break on the points
// where it actually matters: Venue.PartitionAt must resolve every
// shared-wall, corner, and door point to the lowest containing partition
// ID, across the four sample venues and adversarial venues with mirrored
// layouts, sliver rooms, and identical footprints stacked on multiple
// levels.
func TestBoundaryTieBreakLowestID(t *testing.T) {
	vs := []*indoor.Venue{
		testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 3, InterRoomDoors: true}),
	}
	for _, name := range venues.Names {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	for seed := int64(1); seed <= 12; seed++ {
		vs = append(vs, difftest.GenVenue(seed))
	}
	for _, v := range vs {
		ties := 0
		for _, pt := range boundaryPoints(v) {
			want, n := lowestContaining(v, pt)
			if got := v.PartitionAt(pt); got != want {
				t.Fatalf("%s: PartitionAt(%v) = %d, want %d", v.Name, pt, got, want)
			}
			if n > 1 {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no boundary point was contained by 2+ partitions; the venue does not exercise ties", v.Name)
		}
	}
}

// TestBoundaryStackedLevels pins the stacked-footprint case directly: the
// same (x, y) corner exists on every level of a stacked venue and must
// resolve per-level — never to a partition of another level.
func TestBoundaryStackedLevels(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 3, InterRoomDoors: true})
	for i := range v.Partitions {
		p := &v.Partitions[i]
		r := p.Rect
		pt := geom.Pt(r.Min.X, r.Min.Y, r.Level())
		got := v.PartitionAt(pt)
		if got == indoor.NoPartition {
			t.Fatalf("corner of %s unlocated", p.Name)
		}
		if v.Partition(got).Level() != r.Level() {
			t.Fatalf("corner of %s (level %d) resolved to %s (level %d)",
				p.Name, r.Level(), v.Partition(got).Name, v.Partition(got).Level())
		}
	}
}
