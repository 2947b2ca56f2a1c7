package continuous

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

func h(n float64) time.Duration { return time.Duration(n * float64(time.Hour)) }

// interRoomDoors returns the venue's room-to-room doors in ID order.
func interRoomDoors(v *indoor.Venue) []indoor.DoorID {
	var out []indoor.DoorID
	for i := range v.Doors {
		d := &v.Doors[i]
		if d.B == indoor.NoPartition {
			continue
		}
		if v.Partition(d.A).Kind == indoor.Room && v.Partition(d.B).Kind == indoor.Room {
			out = append(out, d.ID)
		}
	}
	return out
}

// rushHour assembles the seeded rush-hour scenario shared by the
// differential pin and the benchmark: a two-level grid, a walker
// population, two scheduled inter-room doors (one opens at 9:00, one —
// on a midnight-wrapping schedule — closes at 9:10), and a standing
// query over the grid's rooms.
type rushHour struct {
	venue *indoor.Venue
	graph *d2d.Graph
	tree  *vip.Tree
	tt    *temporal.Timetable
	sim   *motion.Simulation
	cfg   Config
}

func newRushHour(t testing.TB, walkers int, seed int64) *rushHour {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2, InterRoomDoors: true})
	g := d2d.New(v)
	tree, err := vip.Build(v, vip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	doors := interRoomDoors(v)
	if len(doors) < 2 {
		t.Fatalf("grid venue has %d inter-room doors, want >= 2", len(doors))
	}
	tt := temporal.NewTimetable(v)
	// Door 0 opens at 9:00; door 1 closes at 9:10 (wrap schedule). A
	// sweep from 8:55 to 9:15 crosses both transitions.
	if err := tt.SetDoor(doors[0], temporal.Daily(h(9), h(17))); err != nil {
		t.Fatal(err)
	}
	if err := tt.SetDoor(doors[1], temporal.Daily(h(22), h(9)+10*time.Minute)); err != nil {
		t.Fatal(err)
	}
	sim, err := motion.NewSimulation(v, g, motion.Config{
		Walkers: walkers, Dwell: 45 * time.Second, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rooms := v.Rooms()
	return &rushHour{
		venue: v, graph: g, tree: tree, tt: tt, sim: sim,
		cfg: Config{
			Tree:       tree,
			Sim:        sim,
			Existing:   rooms[:2],
			Candidates: rooms[2:10],
			Timetable:  tt,
			ClockStart: h(8) + 55*time.Minute,
		},
	}
}

func requireSameResult(t *testing.T, tick int, got, want core.Result) {
	t.Helper()
	if got.Found != want.Found || got.Answer != want.Answer {
		t.Fatalf("tick %d: engine %+v, Exec %+v", tick, got, want)
	}
	same := got.Objective == want.Objective ||
		(math.IsNaN(got.Objective) && math.IsNaN(want.Objective))
	if !same {
		t.Fatalf("tick %d: engine objective %v, Exec objective %v",
			tick, got.Objective, want.Objective)
	}
}

// TestDifferentialRushHour is the acceptance pin: a seeded 500-walker
// rush-hour sweep crossing two scheduled door transitions, with the
// incremental answer compared against a fresh core.Exec of the same
// snapshot on the same era index at every tick.
func TestDifferentialRushHour(t *testing.T) {
	rh := newRushHour(t, 500, 42)
	m := obs.NewMetrics()
	rh.cfg.Metrics = m
	eng, err := New(rh.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const ticks = 40
	const dt = 30 * time.Second
	for i := 1; i <= ticks; i++ {
		got, err := eng.Tick(dt)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		want, err := core.Exec(ctx, eng.Tree(), eng.Query(), core.Options{})
		if err != nil {
			t.Fatalf("tick %d: Exec: %v", i, err)
		}
		requireSameResult(t, i, got, want.MinMax)
	}
	st := eng.Stats()
	if st.Transitions < 2 {
		t.Errorf("sweep crossed %d transitions, want >= 2", st.Transitions)
	}
	if st.Reused == 0 {
		t.Error("no client rows were ever reused")
	}
	if st.Resolved == 0 {
		t.Error("no client rows were ever re-solved")
	}
	if st.Ticks != ticks {
		t.Errorf("Stats.Ticks = %d, want %d", st.Ticks, ticks)
	}
	snap := m.Snapshot()
	if snap.ContinuousTicks != ticks {
		t.Errorf("metrics ticks = %d, want %d", snap.ContinuousTicks, ticks)
	}
	if snap.ContinuousResolved != st.Resolved || snap.ContinuousReused != st.Reused {
		t.Errorf("metrics resolved/reused = %d/%d, stats %d/%d",
			snap.ContinuousResolved, snap.ContinuousReused, st.Resolved, st.Reused)
	}
	if snap.ContinuousInvalidations != st.Invalidated {
		t.Errorf("metrics invalidations = %d, stats %d",
			snap.ContinuousInvalidations, st.Invalidated)
	}
}

// TestDifferentialMaskedOracle cross-checks a small sweep against the
// independent masked-graph brute-force oracle (core.SolveBrute on the
// base graph masked by the timetable), tying the era-snapshot machinery
// back to the base venue's timetable.
func TestDifferentialMaskedOracle(t *testing.T) {
	rh := newRushHour(t, 40, 7)
	eng, err := New(rh.cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := &core.Query{Existing: rh.cfg.Existing, Candidates: rh.cfg.Candidates}
	const dt = 2 * time.Minute
	for i := 1; i <= 12; i++ {
		got, err := eng.Tick(dt)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		q.Clients = rh.sim.Snapshot()
		want := core.SolveBrute(rh.graph.Masked(rh.tt.Mask(eng.Clock())), q)
		if got.Found != want.Found || got.Answer != want.Answer {
			t.Fatalf("tick %d at %v: engine %+v, masked oracle %+v",
				i, eng.Clock(), got, want.Result)
		}
		if got.Found && math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("tick %d: objective %v vs masked oracle %v",
				i, got.Objective, want.Objective)
		}
	}
	if eng.Stats().Transitions < 2 {
		t.Errorf("sweep crossed %d transitions, want >= 2", eng.Stats().Transitions)
	}
}

// TestEraTreesKeepBaseOptions: an engine over an IP-tree with custom
// fanouts builds its era trees with the same options, so a transition
// never swaps in a default VIP-tree.
func TestEraTreesKeepBaseOptions(t *testing.T) {
	rh := newRushHour(t, 40, 7)
	base, err := vip.Build(rh.venue, vip.Options{LeafFanout: 3, NodeFanout: 2, Vivid: false})
	if err != nil {
		t.Fatal(err)
	}
	rh.cfg.Tree = base
	eng, err := New(rh.cfg)
	if err != nil {
		t.Fatal(err)
	}
	eras := 0
	for i := 1; i <= 12; i++ {
		if _, err := eng.Tick(2 * time.Minute); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if eng.Tree() == base {
			continue
		}
		eras++
		if got := eng.Tree().Options(); got != base.Options() || got.Vivid {
			t.Fatalf("tick %d: era tree options %+v, base %+v", i, got, base.Options())
		}
	}
	if eng.Stats().Transitions < 2 || eras == 0 {
		t.Errorf("sweep crossed %d transitions and %d ticks on an era tree, want >= 2 and > 0",
			eng.Stats().Transitions, eras)
	}
}

// TestDifferentialNoTimetable pins the pure moving-clients path (no door
// schedules) across a fine-grained sweep.
func TestDifferentialNoTimetable(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 3, Levels: 1, InterRoomDoors: true})
	g := d2d.New(v)
	tree, err := vip.Build(v, vip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := motion.NewSimulation(v, g, motion.Config{Walkers: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rooms := v.Rooms()
	eng, err := New(Config{
		Tree: tree, Sim: sim,
		Existing: rooms[:1], Candidates: rooms[1:5],
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; i <= 30; i++ {
		got, err := eng.Tick(500 * time.Millisecond)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		want, err := core.Exec(ctx, eng.Tree(), eng.Query(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, i, got, want.MinMax)
	}
	if eng.Stats().Transitions != 0 {
		t.Errorf("no timetable, but %d transitions", eng.Stats().Transitions)
	}
}

// doorBetween returns the door joining the two named partitions.
func doorBetween(t *testing.T, v *indoor.Venue, a, b string) indoor.DoorID {
	t.Helper()
	var pa, pb indoor.PartitionID = indoor.NoPartition, indoor.NoPartition
	for i := range v.Partitions {
		switch v.Partitions[i].Name {
		case a:
			pa = indoor.PartitionID(i)
		case b:
			pb = indoor.PartitionID(i)
		}
	}
	if pa == indoor.NoPartition || pb == indoor.NoPartition {
		t.Fatalf("partitions %q/%q not found", a, b)
	}
	ds := v.DoorsBetween(pa, pb)
	if len(ds) != 1 {
		t.Fatalf("%d doors between %q and %q, want 1", len(ds), a, b)
	}
	return ds[0]
}

// TestTransitionInvalidatesSelectively checks the bounded invalidation
// rule: flipping a door in a far corner of the venue — bordering no
// facility and shortcutting no facility path — must only discard the rows
// of clients whose partition the door touches, not the whole population.
// (When the flipped door borders a facility, distances change venue-wide
// and full invalidation is the correct outcome; that case is exercised by
// TestDifferentialRushHour.)
func TestTransitionInvalidatesSelectively(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2, InterRoomDoors: true})
	g := d2d.New(v)
	tree, err := vip.Build(v, vip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The facilities all sit on level 0; the scheduled door joins two
	// level-1 rooms whose inter-room shortcut lies on no shortest path to
	// any level-0 room (each room's corridor door is always closer).
	far := doorBetween(t, v, "N2-L1", "N3-L1")
	tt := temporal.NewTimetable(v)
	if err := tt.SetDoor(far, temporal.Daily(h(9), h(17))); err != nil {
		t.Fatal(err)
	}
	const walkers = 200
	sim, err := motion.NewSimulation(v, g, motion.Config{
		Walkers: walkers, Dwell: 45 * time.Second, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rooms := v.Rooms()
	eng, err := New(Config{
		Tree: tree, Sim: sim,
		Existing:   rooms[:2],
		Candidates: rooms[2:8],
		Timetable:  tt,
		ClockStart: h(8) + 55*time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; i <= 10; i++ {
		got, err := eng.Tick(time.Minute)
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		// The differential still holds through the selective transition.
		want, err := core.Exec(ctx, eng.Tree(), eng.Query(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, i, got, want.MinMax)
	}
	st := eng.Stats()
	if st.Transitions < 1 {
		t.Fatal("sweep crossed no transitions")
	}
	if st.Invalidated == 0 {
		t.Error("transition invalidated no rows; expected occupants of the flipped door's rooms to be hit")
	}
	if st.Invalidated >= walkers/2 {
		t.Errorf("transition invalidated %d of %d rows; invalidation is not selective",
			st.Invalidated, walkers)
	}
}

// TestSubscribe checks event delivery: one EventTick per tick, an
// EventAnswerChanged exactly when the result flips, and cancellation.
func TestSubscribe(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 3, Levels: 1})
	g := d2d.New(v)
	tree, err := vip.Build(v, vip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := motion.NewSimulation(v, g, motion.Config{Walkers: 25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rooms := v.Rooms()
	eng, err := New(Config{Tree: tree, Sim: sim, Existing: rooms[:1], Candidates: rooms[1:4]})
	if err != nil {
		t.Fatal(err)
	}
	var ticks, changes []Event
	cancel := eng.Subscribe(func(ev Event) {
		switch ev.Kind {
		case EventTick:
			ticks = append(ticks, ev)
		case EventAnswerChanged:
			changes = append(changes, ev)
		}
	})
	prev := eng.Result()
	wantChanges := 0
	const n = 20
	for i := 1; i <= n; i++ {
		res, err := eng.Tick(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(res, prev) {
			wantChanges++
		}
		prev = res
	}
	if len(ticks) != n {
		t.Fatalf("got %d tick events, want %d", len(ticks), n)
	}
	if len(changes) != wantChanges {
		t.Fatalf("got %d answer-changed events, want %d", len(changes), wantChanges)
	}
	for i, ev := range ticks {
		if ev.Tick != int64(i+1) {
			t.Fatalf("tick event %d has Tick=%d", i, ev.Tick)
		}
		if ev.Resolved+ev.Reused+ev.Carried != 25 {
			t.Fatalf("tick event %d: resolved %d + reused %d + carried %d != 25", i, ev.Resolved, ev.Reused, ev.Carried)
		}
	}
	if eng.Stats().AnswerChanges != int64(wantChanges) {
		t.Errorf("Stats.AnswerChanges = %d, want %d", eng.Stats().AnswerChanges, wantChanges)
	}
	cancel()
	if _, err := eng.Tick(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != n {
		t.Error("cancelled subscriber still received events")
	}
}

// TestTransitionFailureIsSticky checks the documented failure mode: a
// schedule that seals a room makes the transition fail, Tick reports the
// error, and the maintained answer is not silently updated.
func TestTransitionFailureIsSticky(t *testing.T) {
	v := testvenue.Corridor3()
	g := d2d.New(v)
	tree, err := vip.Build(v, vip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tt := temporal.NewTimetable(v)
	// R2's only door closes at 9:00: the 9:00 snapshot disconnects.
	if err := tt.SetDoor(2, temporal.Daily(h(17), h(9))); err != nil {
		t.Fatal(err)
	}
	sim, err := motion.NewSimulation(v, g, motion.Config{Walkers: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Tree: tree, Sim: sim,
		Existing:   []indoor.PartitionID{1},
		Candidates: []indoor.PartitionID{2, 3},
		Timetable:  tt,
		ClockStart: h(8) + 59*time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Tick(2 * time.Minute); err == nil {
		t.Fatal("expected transition failure when the snapshot disconnects")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	v := testvenue.TwoRooms()
	g := d2d.New(v)
	tree, err := vip.Build(v, vip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := motion.NewSimulation(v, g, motion.Config{Walkers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A timetable over an equal but distinct venue: its door IDs could
	// name the tree's doors only by accident.
	foreign := temporal.NewTimetable(testvenue.TwoRooms())
	// A simulation over a larger venue: its walkers stand in partitions
	// the tree does not have.
	grid := testvenue.Grid(testvenue.GridParams{Cols: 2, Levels: 3})
	gridSim, err := motion.NewSimulation(grid, d2d.New(grid), motion.Config{Walkers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Sim: sim, Candidates: []indoor.PartitionID{0}},                                 // nil tree
		{Tree: tree, Candidates: []indoor.PartitionID{0}},                               // nil sim
		{Tree: tree, Sim: sim},                                                          // no candidates
		{Tree: tree, Sim: sim, Candidates: []indoor.PartitionID{99}},                    // bad partition
		{Tree: tree, Sim: sim, Candidates: []indoor.PartitionID{0}, Timetable: foreign}, // foreign timetable
		{Tree: tree, Sim: gridSim, Candidates: []indoor.PartitionID{0}},                 // foreign simulation
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	eng, err := New(Config{Tree: tree, Sim: sim, Candidates: []indoor.PartitionID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Tick(0); err == nil {
		t.Error("Tick(0) accepted")
	}
}
