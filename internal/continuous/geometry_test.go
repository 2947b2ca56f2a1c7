package continuous

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// hubs returns the n partitions of v with the most doors, most first.
func hubs(v *indoor.Venue, n int) []indoor.PartitionID {
	ids := make([]indoor.PartitionID, v.NumPartitions())
	for i := range ids {
		ids[i] = indoor.PartitionID(i)
	}
	slices.SortStableFunc(ids, func(a, b indoor.PartitionID) int {
		return len(v.Partition(b).Doors) - len(v.Partition(a).Doors)
	})
	return ids[:n]
}

// adversarialPoints returns client locations in partition p that sit where
// a geometric door bound is tight or degenerate: exactly on each door
// (for a stair, on the door's own level), on the door's x or y line,
// at the partition's corners and centre, plus a few random points.
func adversarialPoints(v *indoor.Venue, p indoor.PartitionID, rng *rand.Rand) []geom.Point {
	r := v.Partition(p).Rect
	lv := r.Level()
	pts := []geom.Point{r.Min, r.Max, geom.Pt(r.Min.X, r.Max.Y, lv), geom.Pt(r.Max.X, r.Min.Y, lv), r.Center()}
	for _, d := range v.Partition(p).Doors {
		loc := v.Door(d).Loc
		pts = append(pts, loc,
			geom.Pt(loc.X, r.Min.Y+rng.Float64()*r.Height(), lv),
			geom.Pt(r.Min.X+rng.Float64()*r.Width(), loc.Y, lv),
			geom.Pt(loc.X, loc.Y, lv))
	}
	for i := 0; i < 8; i++ {
		pts = append(pts, v.RandomPointIn(p, rng.Float64(), rng.Float64()))
	}
	return pts
}

// checkAgainstNaive resolves every point in part through the engine's base
// era and requires nn and every min(nn, cand[k]) to equal the naive spec
// over exact Venue.PointDoorDist offsets, bit for bit.
func checkAgainstNaive(t *testing.T, e *Engine, part indoor.PartitionID, pts []geom.Point) {
	t.Helper()
	v := e.baseVenue
	sig := e.era.signature(part)
	doors := v.Partition(part).Doors
	off := make([]float64, len(doors))
	var r row
	for _, pt := range pts {
		for j, d := range doors {
			off[j] = v.PointDoorDist(part, pt, d)
		}
		e.resolve(&r, core.Client{Loc: pt, Part: part})
		wantNN, wantCand := naiveRow(off, sig, part, e.existing, e.candidates)
		if math.Float64bits(r.nn) != math.Float64bits(wantNN) {
			t.Fatalf("%s partition %d at %v: nn = %v, naive %v", v.Name, part, pt, r.nn, wantNN)
		}
		for k := range e.candidates {
			got, want := math.Min(r.nn, r.cand[k]), math.Min(wantNN, wantCand[k])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s partition %d at %v: min(nn, cand[%d]) = %v, naive %v", v.Name, part, pt, k, got, want)
			}
		}
	}
}

// baseEngine returns an engine over the tree's base era with the given
// facilities and no clients.
func baseEngine(t *testing.T, tree *vip.Tree, existing, candidates []indoor.PartitionID) *Engine {
	t.Helper()
	e := &Engine{existing: existing, candidates: candidates, baseVenue: tree.Venue(), baseTree: tree}
	er, err := e.buildEra(0)
	if err != nil {
		t.Fatal(err)
	}
	e.era = er
	return e
}

// TestResolveAdversarialGeometry pins resolve, on real era signatures, to
// the naive loop over every door and facility at client locations chosen
// to stress a geometric door bound: on the doors of the paper venues'
// hub partitions (CH's two corridors with 170 doors each, MC's), on
// their x and y lines and at partition corners; in a two-level stair,
// whose doors on the other level cost the stair length; in a corridor
// with two coincident doors; and in a symmetric corridor where a
// candidate and an existing facility lie a few ulps apart, so that a
// bound or a scan cut-off off by one rounding step changes the row.
func TestResolveAdversarialGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, name := range []string{"CH", "MC"} {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tree := vip.MustBuild(v, vip.DefaultOptions())
		fe, fn, err := workload.NewGenerator(v).Facilities(20, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range hubs(v, 2) {
			t.Logf("%s hub partition %d: %d doors", name, part, len(v.Partition(part).Doors))
			pts := adversarialPoints(v, part, rng)
			// The query as the benchmarks pose it, one without existing
			// facilities (nn stays +Inf), and one with the hub itself
			// among both facility sets (the zero-distance special case).
			withHub := append([]indoor.PartitionID{part}, fn[1:]...)
			for _, q := range [][2][]indoor.PartitionID{
				{fe, fn},
				{nil, fn},
				{append([]indoor.PartitionID{part}, fe[1:]...), withHub},
			} {
				checkAgainstNaive(t, baseEngine(t, tree, q[0], q[1]), part, pts)
			}
		}
	}

	t.Run("stair", func(t *testing.T) {
		v := testvenue.Grid(testvenue.GridParams{Cols: 3, Levels: 3, InterRoomDoors: true})
		tree := vip.MustBuild(v, vip.DefaultOptions())
		rooms := v.Rooms()
		e := baseEngine(t, tree, rooms[:2], rooms[2:])
		stairs := 0
		for i := range v.Partitions {
			p := &v.Partitions[i]
			if p.Kind != indoor.Stair {
				continue
			}
			stairs++
			checkAgainstNaive(t, e, p.ID, adversarialPoints(v, p.ID, rng))
		}
		if stairs == 0 {
			t.Fatal("grid venue has no stairs")
		}
	})

	t.Run("coincident-doors", func(t *testing.T) {
		b := indoor.NewBuilder("coincident")
		a := b.AddRoom(geom.R(0, 0, 10, 10, 0), "A", "")
		bb := b.AddRoom(geom.R(10, 0, 20, 10, 0), "B", "")
		c := b.AddCorridor(geom.R(0, 10, 20, 14, 0), "C")
		d := b.AddRoom(geom.R(0, 14, 20, 20, 0), "D", "")
		b.AddDoor(geom.Pt(10, 10, 0), a, c) // coincident with the next door
		b.AddDoor(geom.Pt(10, 10, 0), bb, c)
		b.AddDoor(geom.Pt(5, 10, 0), a, c)
		b.AddDoor(geom.Pt(10, 5, 0), a, bb)
		b.AddDoor(geom.Pt(15, 14, 0), c, d)
		v := b.MustBuild()
		tree := vip.MustBuild(v, vip.DefaultOptions())
		for _, q := range [][2][]indoor.PartitionID{
			{{a}, {bb, d}},
			{{d}, {a, bb}},
			{nil, {a, bb, d}},
		} {
			e := baseEngine(t, tree, q[0], q[1])
			for _, p := range []indoor.PartitionID{a, bb, c, d} {
				checkAgainstNaive(t, e, p, adversarialPoints(v, p, rng))
			}
		}
	})

	t.Run("near-ties", func(t *testing.T) {
		// Rooms A and B open onto the corridor at x = 5 and x = 15. A
		// client within ulps of x = 10 is almost equally far from both,
		// so min(nn, cand[k]) falls just below nn or just above it.
		b := indoor.NewBuilder("near-ties")
		a := b.AddRoom(geom.R(0, 0, 10, 10, 0), "A", "")
		bb := b.AddRoom(geom.R(10, 0, 20, 10, 0), "B", "")
		c := b.AddCorridor(geom.R(0, 10, 20, 12, 0), "C")
		b.AddDoor(geom.Pt(5, 10, 0), a, c)
		b.AddDoor(geom.Pt(15, 10, 0), bb, c)
		v := b.MustBuild()
		tree := vip.MustBuild(v, vip.DefaultOptions())
		for _, q := range [][2][]indoor.PartitionID{{{a}, {bb}}, {{bb}, {a}}} {
			checkAgainstNaive(t, baseEngine(t, tree, q[0], q[1]), c, nearTiePoints())
		}
	})
}

// nearTiePoints returns points on the line y = 10 whose x lies within a few
// ulps of 10, and the same points one metre off the line.
func nearTiePoints() []geom.Point {
	var pts []geom.Point
	for _, y := range []float64{10, 11} {
		x := 10.0
		for i := 0; i < 4; i++ {
			x = math.Nextafter(x, 0)
		}
		for i := 0; i < 8; i++ {
			pts = append(pts, geom.Pt(x, y, 0))
			x = math.Nextafter(x, 20)
		}
	}
	return pts
}

// TestChebyshevBelowHypot pins the fact resolve's door bound rests on: the
// larger leg, max(|dx|, |dy|), never exceeds math.Hypot(dx, dy), the
// offset it bounds, under rounding and at the edges of the float range.
func TestChebyshevBelowHypot(t *testing.T) {
	check := func(dx, dy float64) {
		t.Helper()
		b := math.Abs(dx)
		if ay := math.Abs(dy); ay > b {
			b = ay
		}
		if h := math.Hypot(dx, dy); !(b <= h) {
			t.Fatalf("max(|%g|, |%g|) = %g > Hypot = %g", dx, dy, b, h)
		}
	}
	rng := rand.New(rand.NewSource(24))
	edges := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023,
		math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), math.MaxFloat64 / 2, 0x1p1023,
		1, math.Nextafter(1, 2), 1e-300, 1e300,
	}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
			check(-x, y)
			check(x, -y)
		}
	}
	for i := 0; i < 1_000_000; i++ {
		var dx, dy float64
		switch i % 5 {
		case 0: // venue-scale coordinates
			dx, dy = (rng.Float64()-0.5)*2000, (rng.Float64()-0.5)*2000
		case 1: // equal legs
			dx = (rng.Float64() - 0.5) * 2000
			dy = dx
			if rng.Intn(2) == 0 {
				dy = -dx
			}
		case 2: // one leg zero
			dx = (rng.Float64() - 0.5) * 2000
		case 3: // any exponent, subnormals included
			dx = math.Ldexp(rng.Float64(), rng.Intn(2098)-1074)
			dy = math.Ldexp(rng.Float64(), rng.Intn(2098)-1074)
		default: // legs near MaxFloat64
			dx = math.MaxFloat64 * (1 - rng.Float64()*1e-3)
			dy = math.MaxFloat64 * rng.Float64()
		}
		check(dx, dy)
		check(dy, dx)
	}
}
