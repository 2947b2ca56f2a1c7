package continuous

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// freshRows resolves every client of the engine's latest snapshot from
// scratch, the state a full resolve would leave.
func freshRows(e *Engine) []row {
	rows := make([]row, len(e.snap))
	for i, c := range e.snap {
		e.resolve(&rows[i], c)
	}
	return rows
}

// fullCombine is the plain combine over exact rows: every maximum scanned,
// nothing skipped.
func fullCombine(rows []row, candidates []indoor.PartitionID) core.Result {
	notFound := core.Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN()}
	if len(rows) == 0 {
		return notFound
	}
	statusQuo := 0.0
	for i := range rows {
		statusQuo = max(statusQuo, rows[i].nn)
	}
	best, bestObj := indoor.NoPartition, math.Inf(1)
	for k, f := range candidates {
		obj := 0.0
		for i := range rows {
			obj = max(obj, rows[i].value(k+1))
		}
		if obj < bestObj || (obj == bestObj && f < best) {
			bestObj, best = obj, f
		}
	}
	if best == indoor.NoPartition || bestObj >= statusQuo {
		return notFound
	}
	return core.Result{Found: true, Answer: best, Objective: bestObj}
}

// requireBitwise fails unless got and want agree in Found, Answer and the
// objective's bits.
func requireBitwise(t *testing.T, what string, got, want core.Result) {
	t.Helper()
	if got.Found != want.Found || got.Answer != want.Answer ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: bounded %+v, full resolve %+v", what, got, want)
	}
}

// checkRows holds every row of e against a fresh resolve: an exact row
// (resolved this tick or reused) must equal it in every value combine
// reads, bit for bit, and a carried row's bounds must contain it.
func checkRows(t *testing.T, what string, e *Engine, fresh []row) {
	t.Helper()
	for i := range e.rows {
		r, f := &e.rows[i], &fresh[i]
		for c := 0; c <= len(e.candidates); c++ {
			got, want := r.value(c), f.value(c)
			if !e.stale[i] {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: exact row %d column %d holds %v, fresh resolve %v", what, i, c, got, want)
				}
				continue
			}
			if lo, hi := lowerOf(got, e.slack[i]), upperOf(got, e.slack[i]); want < lo || want > hi {
				t.Fatalf("%s: carried row %d column %d: fresh %v outside [%v, %v] (stored %v, slack %v)",
					what, i, c, want, lo, hi, got, e.slack[i])
			}
		}
	}
}

// TestDriftMatchesFullResolve is the many-tick differential for drift
// bounds with no timetable: on a 3-level grid (stairwell legs included)
// and MC for seeds 1-3, and on CH for seed 1, every tick's answer equals a
// full resolve of the same snapshot bit for bit, every exact row equals
// its fresh resolve, every carried row's bounds contain it, and resolved +
// reused + carried is the client count.
func TestDriftMatchesFullResolve(t *testing.T) {
	grid := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 3, InterRoomDoors: true})
	type venueCase struct {
		v              *indoor.Venue
		walkers, ticks int
		dt             time.Duration
		fe, fn         int
		seeds          int64
	}
	cases := []venueCase{{grid, 120, 300, 5 * time.Second, 2, 8, 3}}
	// Few walkers, and one seed on CH: signing a CH partition is the cost
	// here, and every walker signs the partitions it passes.
	for name, seeds := range map[string]int64{"MC": 3, "CH": 1} {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, venueCase{v, 40, 30, 30 * time.Second, 20, 50, seeds})
	}
	for _, vc := range cases {
		tree := vip.MustBuild(vc.v, vip.DefaultOptions())
		for seed := int64(1); seed <= vc.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", vc.v.Name, seed), func(t *testing.T) {
				fe, fn, err := workload.NewGenerator(vc.v).Facilities(vc.fe, vc.fn, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				sim, err := motion.NewSimulation(vc.v, tree.Graph(), motion.Config{Walkers: vc.walkers, Dwell: time.Minute, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				eng, err := New(Config{Tree: tree, Sim: sim, Existing: fe, Candidates: fn, ClockStart: 8 * time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				var ev Event
				eng.Subscribe(func(e Event) { ev = e })
				for i := 1; i <= vc.ticks; i++ {
					got, err := eng.Tick(vc.dt)
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("tick %d", i)
					fresh := freshRows(eng)
					requireBitwise(t, what, got, fullCombine(fresh, fn))
					checkRows(t, what, eng, fresh)
					if n := ev.Resolved + ev.Reused + ev.Carried; n != vc.walkers {
						t.Fatalf("%s: resolved %d + reused %d + carried %d = %d, want %d",
							what, ev.Resolved, ev.Reused, ev.Carried, n, vc.walkers)
					}
				}
				st := eng.Stats()
				if st.Carried == 0 {
					t.Fatal("no row was ever carried on a bound")
				}
				t.Logf("per tick: resolved %.1f, reused %.1f, carried %.1f", float64(st.Resolved)/float64(vc.ticks),
					float64(st.Reused)/float64(vc.ticks), float64(st.Carried)/float64(vc.ticks))
			})
		}
	}
}

// crafted builds an engine over v whose latest snapshot is now, for
// combine tests that place clients by hand. The simulation only sizes the
// rows.
func crafted(t *testing.T, v *indoor.Venue, existing, candidates []indoor.PartitionID, now []core.Client) (*Engine, *d2d.Graph) {
	t.Helper()
	tree := vip.MustBuild(v, vip.DefaultOptions())
	sim, err := motion.NewSimulation(v, tree.Graph(), motion.Config{Walkers: len(now), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Tree: tree, Sim: sim, Existing: existing, Candidates: candidates})
	if err != nil {
		t.Fatal(err)
	}
	e.snap = now
	return e, tree.Graph()
}

// combineEverySubset runs combine with every subset of rows stale, each
// stale row resolved at its was position and bounded by the indoor
// distance to now, and requires the full-resolve answer every time. It
// returns that answer and, per subset, how many stale rows combine
// resolved.
func combineEverySubset(t *testing.T, e *Engine, g *d2d.Graph, was []core.Client) (core.Result, []int) {
	t.Helper()
	now := e.snap
	want := fullCombine(freshRows(e), e.candidates)
	settled := make([]int, 1<<len(now))
	for mask := range settled {
		e.staleIdx = e.staleIdx[:0]
		for i := range now {
			c, stale := now[i], mask&(1<<i) != 0
			if stale {
				c = was[i]
				e.staleIdx = append(e.staleIdx, int32(i))
				e.slack[i] = drift(0, g.PointToPoint(was[i].Loc, was[i].Part, now[i].Loc, now[i].Part))
			}
			e.resolve(&e.rows[i], c)
			e.stale[i] = stale
		}
		e.settled = 0
		requireBitwise(t, fmt.Sprintf("stale set %b", mask), e.combine(), want)
		settled[mask] = e.settled
	}
	return want, settled
}

// partNamed returns the partition of v with the given name.
func partNamed(t *testing.T, v *indoor.Venue, name string) indoor.PartitionID {
	t.Helper()
	for i := range v.Partitions {
		if v.Partitions[i].Name == name {
			return indoor.PartitionID(i)
		}
	}
	t.Fatalf("no partition %q", name)
	return indoor.NoPartition
}

// TestCombineTieAtMaximum: two candidates whose objectives tie exactly,
// set by clients standing midway between their doors, listed in
// descending ID order. Whichever rows are stale, combine returns the
// lower partition ID with the tied objective, and a stale row far below
// every maximum stays carried.
func TestCombineTieAtMaximum(t *testing.T) {
	v := testvenue.Corridor3()
	corr, r0, r1, r2 := partNamed(t, v, "corridor"), partNamed(t, v, "R0"), partNamed(t, v, "R1"), partNamed(t, v, "R2")
	at := func(x, y float64, p indoor.PartitionID) core.Client {
		return core.Client{Loc: geom.Pt(x, y, 0), Part: p}
	}
	now := []core.Client{at(20, 2.5, corr), at(20, 1, corr), at(5, 10, r0), at(4, 1, corr)}
	was := []core.Client{at(19, 2.5, corr), at(20, 2, corr), at(5, 12, r0), at(3, 1, corr)}
	e, g := crafted(t, v, []indoor.PartitionID{r0}, []indoor.PartitionID{r2, r1}, now)
	got, settled := combineEverySubset(t, e, g, was)
	if want := math.Hypot(5, 4); !got.Found || got.Answer != r1 || got.Objective != want {
		t.Fatalf("answer %+v, want R1 (%d) at %v", got, r1, want)
	}
	if s := settled[1<<2]; s != 0 {
		t.Errorf("the client in R0, at distance 0, was resolved %d times; it can set no maximum", s)
	}
}

// TestCombineKnifeEdgeFound: Found needs the best objective strictly below
// the status quo. With both equal combine must report no answer; with the
// status quo one ulp above, it must report the candidate. Both hold for
// every subset of stale rows.
func TestCombineKnifeEdgeFound(t *testing.T) {
	v := testvenue.Corridor3()
	corr, r0, r2 := partNamed(t, v, "corridor"), partNamed(t, v, "R0"), partNamed(t, v, "R2")
	at := func(x float64, p indoor.PartitionID) core.Client { return core.Client{Loc: geom.Pt(x, 5, 0), Part: p} }
	existing, candidates := []indoor.PartitionID{r0}, []indoor.PartitionID{r2}

	// On the corridor's door line x is 10 from R0's door and 25-x from
	// R2's, exactly. At x = 15 the status quo and R2's objective are both 10.
	e, g := crafted(t, v, existing, candidates, []core.Client{at(15, corr), at(4, corr)})
	got, _ := combineEverySubset(t, e, g, []core.Client{at(14, corr), at(3, corr)})
	if got.Found {
		t.Fatalf("objective equal to the status quo reported %+v", got)
	}

	// One step right of 15 the status quo is 10+ulp and that client's
	// candidate distance 10-ulp; the client at 15 sets R2's objective to
	// 10, one ulp below the status quo.
	up := math.Nextafter(15, 16)
	e, g = crafted(t, v, existing, candidates, []core.Client{at(up, corr), at(15, corr)})
	got, _ = combineEverySubset(t, e, g, []core.Client{at(15.5, corr), at(14.5, corr)})
	if !got.Found || got.Answer != r2 || got.Objective != 10 || math.Nextafter(got.Objective, 11) != up-5 {
		t.Fatalf("objective one ulp below the status quo %v: got %+v", up-5, got)
	}
}

// TestBoundsOffInClosedEra: walkers walk the base topology, through closed
// doors too, so in an era with a door closed a walker's values can jump by
// more than it walked. The engine must carry nothing there. Here R0 and R1
// share a door that stays closed; a walker crossing it finds a facility in
// R0 suddenly a corridor detour away.
func TestBoundsOffInClosedEra(t *testing.T) {
	v := testvenue.MultiDoorRooms()
	g := d2d.New(v)
	tree := vip.MustBuild(v, vip.DefaultOptions())
	r0 := partNamed(t, v, "R0")
	r1 := partNamed(t, v, "R1")
	shared := v.DoorsBetween(r0, r1)[0]
	tt := temporal.NewTimetable(v)
	if err := tt.SetDoor(shared, temporal.Daily(h(22), h(23))); err != nil {
		t.Fatal(err)
	}
	sim, err := motion.NewSimulation(v, g, motion.Config{Walkers: 30, Dwell: 5 * time.Second, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Tree: tree, Sim: sim, Existing: []indoor.PartitionID{r0}, Candidates: []indoor.PartitionID{r1},
		Timetable: tt, ClockStart: h(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	masked := g.Masked(tt.Mask(h(8)))
	before := sim.Snapshot()
	odo := make([]float64, len(before))
	for i := range odo {
		odo[i] = sim.Odometer(i)
	}
	jumps := 0
	for i := 1; i <= 200; i++ {
		got, err := eng.Tick(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st := eng.Stats(); st.Carried != 0 {
			t.Fatalf("tick %d: %d rows carried with a door closed", i, st.Carried)
		}
		want := core.SolveBrute(masked, eng.Query())
		if got.Found != want.Found || got.Answer != want.Answer || (got.Found && got.Objective != want.Objective) {
			t.Fatalf("tick %d: engine %+v, masked brute force %+v", i, got, want.Result)
		}
		snap := sim.Snapshot()
		for w, c := range snap {
			b := before[w]
			if b.Part == r0 && c.Part == r1 {
				walked := sim.Odometer(w) - odo[w]
				if jump := masked.PointToPartition(c.Loc, c.Part, r0); jump > walked+1 {
					jumps++
				}
			}
			odo[w] = sim.Odometer(w)
		}
		before = snap
	}
	if jumps == 0 {
		t.Fatal("no walker crossed the closed door; the test shows nothing")
	}
}

// TestNoBoundsWhenStairPricesAboveLegs: a stairwell with two doors on one
// level prices the walk between them at least a stair length, more than
// the straight leg a walker takes, so a point's distances are no longer
// 1-Lipschitz along walks and the engine must carry nothing.
func TestNoBoundsWhenStairPricesAboveLegs(t *testing.T) {
	b := indoor.NewBuilder("stair-two-doors")
	c0 := b.AddCorridor(geom.R(0, 0, 20, 5, 0), "c0")
	r0 := b.AddRoom(geom.R(0, 5, 10, 15, 0), "r0", "")
	c1 := b.AddCorridor(geom.R(0, 0, 20, 5, 1), "c1")
	r1 := b.AddRoom(geom.R(0, 5, 10, 15, 1), "r1", "")
	st := b.AddStair(geom.R(20, 0, 25, 5, 0), "st", 8)
	b.AddDoor(geom.Pt(5, 5, 0), r0, c0)
	b.AddDoor(geom.Pt(5, 5, 1), r1, c1)
	b.AddDoor(geom.Pt(20, 1, 0), c0, st)
	b.AddDoor(geom.Pt(20, 4, 0), c0, st)
	b.AddDoor(geom.Pt(20, 2.5, 1), c1, st)
	v, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if legMetric(v) {
		t.Fatal("legMetric accepted a stairwell whose same-level doors are priced at the stair length")
	}
	tree := vip.MustBuild(v, vip.DefaultOptions())
	sim, err := motion.NewSimulation(v, tree.Graph(), motion.Config{Walkers: 20, Dwell: 5 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Tree: tree, Sim: sim, Existing: []indoor.PartitionID{r0}, Candidates: []indoor.PartitionID{r1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		got, err := eng.Tick(3 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, fmt.Sprintf("tick %d", i), got, fullCombine(freshRows(eng), eng.candidates))
	}
	if st := eng.Stats(); st.Carried != 0 || st.Resolved == 0 {
		t.Fatalf("resolved %d, carried %d; want every moved row resolved", st.Resolved, st.Carried)
	}
}
