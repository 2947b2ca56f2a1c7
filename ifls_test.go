package ifls_test

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	ifls "github.com/indoorspatial/ifls"
)

// answer runs ix.Query on a background context, failing the test on error.
func answer(t testing.TB, ix *ifls.Index, q *ifls.Query, o ifls.QueryOptions) ifls.Answer {
	t.Helper()
	a, err := ix.Query(context.Background(), q, o)
	if err != nil {
		t.Fatalf("Query(%v): %v", o.Objective, err)
	}
	return a
}

// sessionAnswer is answer through a Session.
func sessionAnswer(t testing.TB, s *ifls.Session, q *ifls.Query, o ifls.QueryOptions) ifls.Answer {
	t.Helper()
	a, err := s.Query(context.Background(), q, o)
	if err != nil {
		t.Fatalf("Session.Query(%v): %v", o.Objective, err)
	}
	return a
}

// buildOffice assembles a small venue through the public API: a corridor
// with four rooms.
func buildOffice(t *testing.T) (*ifls.Venue, []ifls.PartitionID) {
	t.Helper()
	b := ifls.NewBuilder("office")
	hall := b.AddCorridor(ifls.R(0, 0, 40, 4, 0), "hall")
	var rooms []ifls.PartitionID
	for i := 0; i < 4; i++ {
		x0 := float64(i * 10)
		r := b.AddRoom(ifls.R(x0, 4, x0+10, 14, 0), "", "")
		b.AddDoor(ifls.Pt(x0+5, 4, 0), r, hall)
		rooms = append(rooms, r)
	}
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return v, rooms
}

func TestPublicAPIEndToEnd(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}

	c0, err := ix.ClientAt(0, ifls.Pt(5, 9, 0)) // room 0
	if err != nil {
		t.Fatal(err)
	}
	c3, err := ix.ClientAt(1, ifls.Pt(35, 9, 0)) // room 3
	if err != nil {
		t.Fatal(err)
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[1], rooms[2], rooms[3]},
		Clients:    []ifls.Client{c0, c3},
	}
	res := answer(t, ix, q, ifls.QueryOptions{}).MinMax
	if !res.Found {
		t.Fatal("expected an improving candidate")
	}
	// Client c3 is 5+25+5=35 from the existing facility in room 0; room 3
	// itself reduces its distance to 0 while c0 keeps distance 0 to the
	// existing facility, so room 3 wins with objective 0... c3's distance
	// to room 3 is 0 only if inside; it is. Check against baseline.
	base := answer(t, ix, q, ifls.QueryOptions{Objective: ifls.Baseline}).MinMax
	if base.Answer != res.Answer || math.Abs(base.Objective-res.Objective) > 1e-9 {
		t.Fatalf("solvers disagree: %+v vs %+v", res, base)
	}
	if res.Answer != rooms[3] {
		t.Fatalf("Answer = %d, want room 3 (%d)", res.Answer, rooms[3])
	}
}

func TestPublicDistance(t *testing.T) {
	v, _ := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	// Room 0 center to room 1 center: 5 down + 10 across + 5 up = 20.
	d, err := ix.Distance(ifls.Pt(5, 9, 0), ifls.Pt(15, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := 5 + math.Hypot(10, 0) + 5
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("Distance = %v, want %v", d, want)
	}
	if _, err := ix.Distance(ifls.Pt(-100, -100, 0), ifls.Pt(5, 9, 0)); err == nil {
		t.Fatal("expected error for outside point")
	}
}

func TestPublicNearestFacility(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	f, d, ok := ix.NearestFacility(ifls.Pt(5, 9, 0), []ifls.PartitionID{rooms[2], rooms[3]})
	if !ok || f != rooms[2] {
		t.Fatalf("NearestFacility = (%d, %v, %v), want room 2", f, d, ok)
	}
	if _, _, ok := ix.NearestFacility(ifls.Pt(5, 9, 0), nil); ok {
		t.Fatal("empty facility set must report !ok")
	}
}

func TestPublicSampleVenues(t *testing.T) {
	for _, name := range ifls.SampleVenueNames() {
		v, err := ifls.SampleVenue(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.NumPartitions() == 0 {
			t.Fatalf("%s: empty venue", name)
		}
	}
	if _, err := ifls.SampleVenue("XYZ"); err == nil {
		t.Fatal("expected error for unknown sample venue")
	}
}

func TestPublicVenueJSONRoundTrip(t *testing.T) {
	v, _ := buildOffice(t)
	var buf bytes.Buffer
	if err := v.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ifls.LoadVenue(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPartitions() != v.NumPartitions() {
		t.Fatalf("round trip lost partitions: %d vs %d", got.NumPartitions(), v.NumPartitions())
	}
}

func TestPublicRandomQueryAndVariants(t *testing.T) {
	v, err := ifls.SampleVenue("CPH")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ifls.RandomQuery(v, 10, 15, 200, ifls.Uniform, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	res := answer(t, ix, q, ifls.QueryOptions{}).MinMax
	md := answer(t, ix, q, ifls.QueryOptions{Objective: ifls.MinDist}).Ext
	ms := answer(t, ix, q, ifls.QueryOptions{Objective: ifls.MaxSum}).Ext
	if res.Stats.Retrievals == 0 {
		t.Fatal("no retrievals recorded")
	}
	if md.Answer == ifls.NoPartition || ms.Answer == ifls.NoPartition {
		t.Fatalf("variants returned no answer: %+v / %+v", md, ms)
	}
}

func TestPublicTopK(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	var clients []ifls.Client
	for i, r := range rooms {
		clients = append(clients, ifls.Client{ID: int32(i), Loc: v.Partition(r).Rect.Center(), Part: r})
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[1], rooms[2], rooms[3]},
		Clients:    clients,
	}
	top := answer(t, ix, q, ifls.QueryOptions{Objective: ifls.TopK, K: 2}).TopK
	if len(top) != 2 {
		t.Fatalf("got %d ranked candidates, want 2", len(top))
	}
	if top[0].Objective > top[1].Objective {
		t.Fatalf("ranking not ascending: %v", top)
	}
	best := answer(t, ix, q, ifls.QueryOptions{}).MinMax
	if top[0].Candidate != best.Answer || math.Abs(top[0].Objective-best.Objective) > 1e-9 {
		t.Fatalf("top-1 %v disagrees with MinMax %+v", top[0], best)
	}
}

func TestPublicIndexSaveLoad(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SavePaged(&buf, ifls.PagedSaveOptions{}); err != nil {
		t.Fatalf("SavePaged: %v", err)
	}
	loaded, err := ifls.LoadIndex(&buf, v)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[2], rooms[3]},
		Clients:    []ifls.Client{{ID: 0, Loc: ifls.Pt(35, 9, 0), Part: rooms[3]}},
	}
	a, b := answer(t, ix, q, ifls.QueryOptions{}).MinMax, answer(t, loaded, q, ifls.QueryOptions{}).MinMax
	if a.Found != b.Found || a.Answer != b.Answer || math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("loaded index disagrees: %+v vs %+v", a, b)
	}
}

func TestPublicRoute(t *testing.T) {
	v, _ := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	// Room 0 center to room 2 center: through both room doors.
	pts, dist, err := ix.Route(ifls.Pt(5, 9, 0), ifls.Pt(25, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 { // start, two doors, end
		t.Fatalf("route has %d waypoints: %v", len(pts), pts)
	}
	d, err := ix.Distance(ifls.Pt(5, 9, 0), ifls.Pt(25, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist-d) > 1e-9 {
		t.Fatalf("route distance %v != Distance %v", dist, d)
	}
	if _, _, err := ix.Route(ifls.Pt(-50, 0, 0), ifls.Pt(5, 9, 0)); err == nil {
		t.Fatal("expected error for outside point")
	}
}

func TestPublicSession(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	sess := ix.NewSession()
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[2], rooms[3]},
		Clients: []ifls.Client{
			{ID: 0, Loc: ifls.Pt(35, 9, 0), Part: rooms[3]},
		},
	}
	warm := sessionAnswer(t, sess, q, ifls.QueryOptions{}).MinMax
	cold := answer(t, ix, q, ifls.QueryOptions{}).MinMax
	if warm.Found != cold.Found || warm.Answer != cold.Answer {
		t.Fatalf("session %+v != index %+v", warm, cold)
	}
	if top := sessionAnswer(t, sess, q, ifls.QueryOptions{Objective: ifls.TopK, K: 2}).TopK; len(top) == 0 {
		t.Fatal("session top-k empty")
	}
}

// TestPublicSessionZeroAlloc: the public Session.Query adds nothing to the
// engine's warm-session guarantee — validation, the panic shield, and the
// options translation run at 0 allocs/op once the caches are warm.
func TestPublicSessionZeroAlloc(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	sess := ix.NewSession()
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[2], rooms[3]},
		Clients:    []ifls.Client{{ID: 0, Loc: ifls.Pt(35, 9, 0), Part: rooms[3]}, {ID: 1, Loc: ifls.Pt(15, 9, 0), Part: rooms[1]}},
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		sessionAnswer(t, sess, q, ifls.QueryOptions{})
	}
	if avg := testing.AllocsPerRun(50, func() { _, _ = sess.Query(ctx, q, ifls.QueryOptions{}) }); avg != 0 {
		t.Fatalf("warm Session.Query allocates %.1f objects/op, want 0", avg)
	}
}

func TestPublicTemporal(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	tt := ix.NewTimetable()
	// Close room 3's door at night (door IDs: room i's corridor door is i).
	if err := tt.SetDoor(3, ifls.Daily(9*time.Hour, 17*time.Hour)); err != nil {
		t.Fatal(err)
	}
	p := ifls.Pt(5, 9, 0)  // room 0
	q := ifls.Pt(35, 9, 0) // room 3
	day, err := ix.DistanceAt(tt, 12*time.Hour, p, q)
	if err != nil {
		t.Fatal(err)
	}
	static, _ := ix.Distance(p, q)
	if math.Abs(day-static) > 1e-9 {
		t.Fatalf("daytime %v != static %v", day, static)
	}
	night, err := ix.DistanceAt(tt, 3*time.Hour, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(night, 1) {
		t.Fatalf("night distance = %v, want +Inf (door closed)", night)
	}
	// A timetable query at night ignores the sealed candidate.
	query := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[2], rooms[3]},
		Clients:    []ifls.Client{{ID: 0, Loc: ifls.Pt(25, 9, 0), Part: rooms[2]}},
	}
	res, err := ix.QueryAt(context.Background(), tt, 3*time.Hour, query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Answer != rooms[2] {
		t.Fatalf("night answer %+v, want room 2", res)
	}
}

func TestPublicContinuous(t *testing.T) {
	// buildOffice plus one extra door between rooms 2 and 3, so a
	// scheduled corridor door can close without disconnecting the venue.
	b := ifls.NewBuilder("office")
	hall := b.AddCorridor(ifls.R(0, 0, 40, 4, 0), "hall")
	var rooms []ifls.PartitionID
	for i := 0; i < 4; i++ {
		x0 := float64(i * 10)
		r := b.AddRoom(ifls.R(x0, 4, x0+10, 14, 0), "", "")
		b.AddDoor(ifls.Pt(x0+5, 4, 0), r, hall)
		rooms = append(rooms, r)
	}
	b.AddDoor(ifls.Pt(30, 9, 0), rooms[2], rooms[3])
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	tt := ix.NewTimetable()
	// Room 3's corridor door (door ID 3) opens during business hours.
	if err := tt.SetDoor(3, ifls.Daily(9*time.Hour, 17*time.Hour)); err != nil {
		t.Fatal(err)
	}
	sim, err := ix.NewSimulation(ifls.SimulationConfig{Walkers: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ix.NewContinuous(ifls.ContinuousConfig{
		Sim:        sim,
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: rooms[1:],
		Timetable:  tt,
		ClockStart: 8*time.Hour + 59*time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ticks, changes int
	cancel := eng.Subscribe(func(ev ifls.ContinuousEvent) {
		switch ev.Kind {
		case ifls.ContinuousTick:
			ticks++
		case ifls.ContinuousAnswerChanged:
			changes++
		}
	})
	defer cancel()
	const n = 8
	for i := 0; i < n; i++ {
		// Crosses the 9:00 door opening on the second tick.
		res, err := eng.Tick(30 * time.Second)
		if err != nil {
			t.Fatalf("Tick %d: %v", i, err)
		}
		// The answer must match a fresh masked solve over the same
		// snapshot at the same clock.
		clients := sim.Snapshot()
		want, err := ix.QueryAt(context.Background(), tt, eng.Clock(), &ifls.Query{
			Existing:   []ifls.PartitionID{rooms[0]},
			Candidates: rooms[1:],
			Clients:    clients,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != want.Found || res.Answer != want.Answer {
			t.Fatalf("tick %d: engine %+v, fresh %+v", i, res, want)
		}
	}
	if ticks != n {
		t.Fatalf("tick events = %d, want %d", ticks, n)
	}
	st := eng.Stats()
	if st.Ticks != n || st.Transitions < 1 {
		t.Fatalf("stats = %+v, want %d ticks and >=1 transition", st, n)
	}
	if int(st.AnswerChanges) != changes {
		t.Fatalf("answer-change events %d != stats %d", changes, st.AnswerChanges)
	}
}

func TestPublicMultiAndNeighbors(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	var clients []ifls.Client
	for i, r := range rooms {
		clients = append(clients, ifls.Client{ID: int32(i), Loc: v.Partition(r).Rect.Center(), Part: r})
	}
	q := &ifls.Query{
		Candidates: rooms,
		Clients:    clients,
	}
	multi := answer(t, ix, q, ifls.QueryOptions{Objective: ifls.Multi, K: 2}).Multi
	if len(multi.Answers) != 2 {
		t.Fatalf("Multi selected %d, want 2", len(multi.Answers))
	}
	nn := ix.KNearestFacilities(ifls.Pt(5, 9, 0), rooms, 2)
	if len(nn) != 2 || nn[0].Facility != rooms[0] || nn[0].Dist != 0 {
		t.Fatalf("KNearestFacilities = %v", nn)
	}
	within := ix.FacilitiesWithin(ifls.Pt(5, 9, 0), rooms, 25)
	if len(within) < 2 {
		t.Fatalf("FacilitiesWithin = %v", within)
	}
	for i := 1; i < len(within); i++ {
		if within[i].Dist < within[i-1].Dist {
			t.Fatalf("range results not sorted: %v", within)
		}
	}
	if got := ix.FacilitiesWithin(ifls.Pt(-99, -99, 0), rooms, 5); got != nil {
		t.Fatal("outside point must return nil")
	}
}

func TestPublicIPTreeOption(t *testing.T) {
	v, rooms := buildOffice(t)
	vipIx, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	ipIx, err := ifls.NewIndexWithOptions(v, ifls.IndexOptions{IPTree: true, LeafFanout: 2, NodeFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[2], rooms[3]},
		Clients: []ifls.Client{
			{ID: 0, Loc: ifls.Pt(35, 9, 0), Part: rooms[3]},
			{ID: 1, Loc: ifls.Pt(25, 9, 0), Part: rooms[2]},
		},
	}
	a, b := answer(t, vipIx, q, ifls.QueryOptions{}).MinMax, answer(t, ipIx, q, ifls.QueryOptions{}).MinMax
	if a.Found != b.Found || math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("VIP and IP indexes disagree: %+v vs %+v", a, b)
	}
}
