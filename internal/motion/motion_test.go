package motion

import (
	"math"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

func almostEq(a, b float64) bool { return a == b || math.Abs(a-b) < 1e-9 }

func TestPlanTrajectoryBasics(t *testing.T) {
	v := testvenue.Corridor3()
	g := d2d.New(v)
	// R0 center (5,10) to R2 center (25,10): legs 5 + 20 + 5.
	tr := PlanTrajectory(g, geom.Pt(5, 10, 0), 1, geom.Pt(25, 10, 0), 3)
	if !almostEq(tr.Length, 30) {
		t.Fatalf("Length = %v, want 30", tr.Length)
	}
	if len(tr.Waypoints) != 4 { // start, door0, door2, goal
		t.Fatalf("waypoints = %d, want 4", len(tr.Waypoints))
	}
	if tr.Waypoints[1].LegPart != 1 || tr.Waypoints[2].LegPart != 0 {
		t.Fatalf("waypoint partitions = %d, %d; want corridor then R2",
			tr.Waypoints[1].LegPart, tr.Waypoints[2].LegPart)
	}
	// Cumulative distances ascend and end at Length.
	for i := 1; i < len(tr.Waypoints); i++ {
		if tr.Waypoints[i].DistFromStart < tr.Waypoints[i-1].DistFromStart-1e-9 {
			t.Fatalf("non-monotone cumulative distances: %+v", tr.Waypoints)
		}
	}
	if !almostEq(tr.Waypoints[len(tr.Waypoints)-1].DistFromStart, tr.Length) {
		t.Fatalf("final waypoint at %v, want %v", tr.Waypoints[len(tr.Waypoints)-1].DistFromStart, tr.Length)
	}
}

func TestTrajectoryAtInterpolation(t *testing.T) {
	v := testvenue.Corridor3()
	g := d2d.New(v)
	start, goal := geom.Pt(5, 10, 0), geom.Pt(25, 10, 0)
	tr := PlanTrajectory(g, start, 1, goal, 3)

	if p, part := tr.At(0); p != start || part != 1 {
		t.Fatalf("At(0) = %v in %d", p, part)
	}
	if p, part := tr.At(tr.Length); p != goal || part != 3 {
		t.Fatalf("At(Length) = %v in %d", p, part)
	}
	if p, part := tr.At(tr.Length + 10); p != goal || part != 3 {
		t.Fatalf("At(beyond) = %v in %d", p, part)
	}
	if p, _ := tr.At(-5); p != start {
		t.Fatalf("At(negative) = %v", p)
	}
	// Halfway down the first leg (2.5 of 5 toward the room door at (5,5)).
	p, part := tr.At(2.5)
	if !almostEq(p.X, 5) || !almostEq(p.Y, 7.5) || part != 1 {
		t.Fatalf("At(2.5) = %v in %d, want (5, 7.5) in R0", p, part)
	}
	// Midway through the corridor leg: walked 5 + 10 = 15 => x=15 on y=5.
	p, part = tr.At(15)
	if !almostEq(p.X, 15) || !almostEq(p.Y, 5) || part != 0 {
		t.Fatalf("At(15) = %v in %d, want (15, 5) in corridor", p, part)
	}
	// The reported partition must contain (or border) the reported point.
	for d := 0.0; d <= tr.Length; d += 0.5 {
		pt, pp := tr.At(d)
		if pp == indoor.NoPartition {
			t.Fatalf("At(%v) located nowhere", d)
		}
		if !v.Partition(pp).Rect.Contains(pt) {
			t.Fatalf("At(%v) = %v not inside claimed partition %d", d, pt, pp)
		}
	}
}

func TestTrajectorySamePartition(t *testing.T) {
	v := testvenue.TwoRooms()
	g := d2d.New(v)
	tr := PlanTrajectory(g, geom.Pt(1, 1, 0), 0, geom.Pt(9, 7, 0), 0)
	if !almostEq(tr.Length, 10) {
		t.Fatalf("Length = %v, want 10", tr.Length)
	}
	if len(tr.Waypoints) != 2 {
		t.Fatalf("waypoints = %d, want 2", len(tr.Waypoints))
	}
	p, part := tr.At(5)
	if part != 0 || !almostEq(p.X, 5) || !almostEq(p.Y, 4) {
		t.Fatalf("At(5) = %v in %d", p, part)
	}
}

func TestTrajectoryAcrossStairs(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 2, Levels: 2, StairLength: 12})
	g := d2d.New(v)
	// Find rooms on both levels.
	var l0, l1 indoor.PartitionID = indoor.NoPartition, indoor.NoPartition
	for _, r := range v.Rooms() {
		if v.Partition(r).Level() == 0 && l0 == indoor.NoPartition {
			l0 = r
		}
		if v.Partition(r).Level() == 1 && l1 == indoor.NoPartition {
			l1 = r
		}
	}
	start := v.Partition(l0).Rect.Center()
	goal := v.Partition(l1).Rect.Center()
	tr := PlanTrajectory(g, start, l0, goal, l1)
	if want := g.PointToPoint(start, l0, goal, l1); !almostEq(tr.Length, want) {
		t.Fatalf("Length = %v, oracle %v", tr.Length, want)
	}
	// Walking the full trajectory never produces an invalid position.
	for d := 0.0; d <= tr.Length; d += 1.0 {
		pt, pp := tr.At(d)
		if pp == indoor.NoPartition {
			t.Fatalf("At(%v) located nowhere", d)
		}
		_ = pt
	}
	if p, pp := tr.At(tr.Length); pp != l1 || p.Level != 1 {
		t.Fatalf("did not arrive: %v in %d", p, pp)
	}
}

func TestSimulationStepAndSnapshot(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	g := d2d.New(v)
	sim, err := NewSimulation(v, g, Config{Walkers: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		snap := sim.Snapshot()
		if len(snap) != 40 {
			t.Fatalf("snapshot size %d", len(snap))
		}
		for _, c := range snap {
			if c.Part == indoor.NoPartition {
				t.Fatalf("client %d located nowhere", c.ID)
			}
			if !v.Partition(c.Part).Rect.Contains(c.Loc) {
				t.Fatalf("client %d at %v outside its partition %d", c.ID, c.Loc, c.Part)
			}
		}
	}
	check()
	moved := false
	before := sim.Snapshot()
	for step := 0; step < 600; step++ {
		sim.Step(time.Second)
		check()
	}
	after := sim.Snapshot()
	for i := range before {
		if before[i].Loc != after[i].Loc {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no walker moved in 10 simulated minutes")
	}
	if sim.Elapsed() != 600*time.Second {
		t.Fatalf("Elapsed = %v", sim.Elapsed())
	}
	occ := sim.Occupancy()
	total := 0
	for _, n := range occ {
		total += n
	}
	if total != 40 {
		t.Fatalf("occupancy sums to %d", total)
	}
}

func TestSimulationConfigValidation(t *testing.T) {
	v := testvenue.TwoRooms()
	g := d2d.New(v)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero walkers", Config{Walkers: 0}},
		{"negative speed", Config{Walkers: 1, Speed: -1}},
		{"NaN speed", Config{Walkers: 1, Speed: math.NaN()}},
		{"infinite speed", Config{Walkers: 1, Speed: math.Inf(1)}},
		{"negative dwell", Config{Walkers: 1, Dwell: -time.Second}},
	} {
		if _, err := NewSimulation(v, g, tc.cfg); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestTrajectoryZeroLength(t *testing.T) {
	v := testvenue.TwoRooms()
	g := d2d.New(v)
	p := geom.Pt(3, 4, 0)
	tr := PlanTrajectory(g, p, 0, p, 0)
	if tr.Length != 0 {
		t.Fatalf("Length = %v, want 0", tr.Length)
	}
	for _, d := range []float64{-1, 0, 0.5} {
		if pt, part := tr.At(d); pt != p || part != 0 {
			t.Fatalf("At(%v) = %v in %d, want %v in 0", d, pt, part, p)
		}
	}
}

func TestTrajectoryStairHandoffAtMidpoint(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 2, Levels: 2, StairLength: 12})
	g := d2d.New(v)
	var l0, l1 indoor.PartitionID = indoor.NoPartition, indoor.NoPartition
	for _, r := range v.Rooms() {
		if v.Partition(r).Level() == 0 && l0 == indoor.NoPartition {
			l0 = r
		}
		if v.Partition(r).Level() == 1 && l1 == indoor.NoPartition {
			l1 = r
		}
	}
	tr := PlanTrajectory(g, v.Partition(l0).Rect.Center(), l0, v.Partition(l1).Rect.Center(), l1)
	stair := -1
	for i := 1; i < len(tr.Waypoints); i++ {
		if tr.Waypoints[i-1].Loc.Level != tr.Waypoints[i].Loc.Level {
			stair = i
			break
		}
	}
	if stair < 0 {
		t.Fatal("route does not cross the stairwell")
	}
	a, b := tr.Waypoints[stair-1], tr.Waypoints[stair]
	mid := a.DistFromStart + 0.5*(b.DistFromStart-a.DistFromStart)
	// Below the midpoint the walker reports the near end of the stair leg,
	// in the partition it entered the stair from.
	if pt, part := tr.At(mid - 1e-6); pt != a.Loc || part != tr.Waypoints[stair-1].LegPart {
		t.Fatalf("just below stair midpoint: %v in %d, want %v in %d",
			pt, part, a.Loc, tr.Waypoints[stair-1].LegPart)
	}
	// At exactly f == 0.5 the hand-off happens: the far end's door, located
	// in the partition the walker is about to pass through.
	wantPart := b.LegPart
	if stair+1 < len(tr.Waypoints) {
		wantPart = tr.Waypoints[stair+1].LegPart
	}
	if pt, part := tr.At(mid); pt != b.Loc || part != wantPart {
		t.Fatalf("at stair midpoint: %v in %d, want %v in %d (hand-off at f==0.5 is far-side)",
			pt, part, b.Loc, wantPart)
	}
	if pt, _ := tr.At(mid); pt.Level == a.Loc.Level {
		t.Fatal("midpoint hand-off did not change level")
	}
}

func TestPlanTrajectoryThroughExteriorDoor(t *testing.T) {
	// A route whose door sequence includes an exterior door: the goal sits
	// exactly at an entrance on the room's far wall, collinear with the
	// interior door, and the entrance is listed first among the room's
	// doors, so PointRoute's first-wins tie-break routes through it. The
	// entrance borders only the room, which labels the leg that reaches it.
	b := indoor.NewBuilder("exterior")
	cor := b.AddCorridor(geom.R(0, 0, 20, 2, 0), "C")
	room := b.AddRoom(geom.R(0, 2, 10, 12, 0), "R", "")
	entrance := b.AddDoor(geom.Pt(5, 12, 0), room, indoor.NoPartition)
	b.AddDoor(geom.Pt(5, 2, 0), cor, room)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := d2d.New(v)
	start, goal := geom.Pt(5, 1, 0), v.Door(entrance).Loc
	tr := PlanTrajectory(g, start, cor, goal, room)
	if !almostEq(tr.Length, 11) {
		t.Fatalf("Length = %v, want 11", tr.Length)
	}
	// start, interior door, entrance, goal; each leg labelled with the
	// partition it walks.
	want := []indoor.PartitionID{cor, cor, room, room}
	if len(tr.Waypoints) != len(want) || tr.Waypoints[2].Loc != goal {
		t.Fatalf("waypoints %+v, want the entrance as the last door", tr.Waypoints)
	}
	for i, wp := range tr.Waypoints {
		if wp.LegPart != want[i] {
			t.Fatalf("waypoint %d labelled %d, want %d (%+v)", i, wp.LegPart, want[i], tr.Waypoints)
		}
	}
	// Between the interior door and the entrance the walker is inside the
	// room.
	pt, part := tr.At(6)
	if part != room || !almostEq(pt.X, 5) || !almostEq(pt.Y, 7) {
		t.Fatalf("At(6) = %v in %d, want (5, 7) in room %d", pt, part, room)
	}
	for d := 0.0; d <= tr.Length; d += 0.25 {
		if pt, part := tr.At(d); !inPartition(v, pt, part) {
			t.Fatalf("At(%v) = %v in %d, which does not hold it", d, pt, part)
		}
	}
}

func TestStepGranularityInvariance(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	g := d2d.New(v)
	const horizon = time.Hour
	run := func(dt time.Duration) float64 {
		sim, err := NewSimulation(v, g, Config{Walkers: 25, Seed: 7, Dwell: 45 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		for el := time.Duration(0); el < horizon; el += dt {
			sim.Step(dt)
		}
		return sim.TotalWalked()
	}
	base := run(100 * time.Millisecond)
	if base <= 0 {
		t.Fatal("population walked nowhere in a simulated hour")
	}
	for _, dt := range []time.Duration{time.Second, time.Minute} {
		got := run(dt)
		if rel := math.Abs(got-base) / base; rel > 1e-9 {
			t.Errorf("TotalWalked(dt=%v) = %v, want %v (rel err %g): effective speed depends on step granularity",
				dt, got, base, rel)
		}
	}
}

func TestSimulationDeterministic(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 1})
	g := d2d.New(v)
	run := func() []geom.Point {
		sim, err := NewSimulation(v, g, Config{Walkers: 10, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			sim.Step(time.Second)
		}
		var out []geom.Point
		for _, c := range sim.Snapshot() {
			out = append(out, c.Loc)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walker %d diverged across identical seeds", i)
		}
	}
}
