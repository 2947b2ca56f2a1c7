package ifls_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	ifls "github.com/indoorspatial/ifls"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// mcConnectedClosures lists MC's doors whose closing, alone, leaves the
// venue connected: the only single-door closures Snapshot can index.
var mcConnectedClosures = []ifls.DoorID{147, 149, 235, 237, 297, 298}

// TestTimedQueriesMatchSnapshots pins the timed answer paths to the
// static ones on a materialized snapshot: QueryAt must answer like
// SolveBrute on the snapshot's door graph, and DistanceAt must measure
// like its PointToPoint, bit for bit, on every connected single-door
// closure of MC and on the all-open timetable.
func TestTimedQueriesMatchSnapshots(t *testing.T) {
	v, err := ifls.SampleVenue("MC")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ifls.RandomQuery(v, 20, 50, 300, ifls.Uniform, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(q.Candidates)
	rng := rand.New(rand.NewSource(2))
	pairs := make([][2]ifls.Client, 50)
	for i := range pairs {
		pairs[i] = [2]ifls.Client{q.Clients[rng.Intn(len(q.Clients))], q.Clients[rng.Intn(len(q.Clients))]}
	}
	const at = 3 * time.Hour
	for _, closed := range append([]ifls.DoorID{indoor.NoDoor}, mcConnectedClosures...) {
		tt := ix.NewTimetable()
		if closed != indoor.NoDoor {
			if err := tt.SetDoor(closed, ifls.Daily(9*time.Hour, 17*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
		snap, _, err := tt.Snapshot(at)
		if err != nil {
			t.Fatalf("closing door %d: %v", closed, err)
		}
		sg := d2d.New(snap)
		got, err := ix.QueryAt(context.Background(), tt, at, q)
		if err != nil {
			t.Fatal(err)
		}
		want := core.SolveBrute(sg, q)
		if got.Found != want.Found || got.Answer != want.Answer || got.Stats != want.Stats ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("closing door %d: QueryAt %+v, SolveBrute on the snapshot %+v", closed, got, want.Result)
		}
		for i, p := range pairs {
			a, b := p[0].Loc, p[1].Loc
			got, err := ix.DistanceAt(tt, at, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := sg.PointToPoint(a, ix.Locate(a), b, ix.Locate(b)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("closing door %d, pair %d: DistanceAt %v, snapshot PointToPoint %v", closed, i, got, want)
			}
		}
	}
}

// centre returns a client at the centre of partition p.
func centre(v *ifls.Venue, p ifls.PartitionID, id int32) ifls.Client {
	return ifls.Client{ID: id, Loc: v.Partition(p).Rect.Center(), Part: p}
}

// TestQueryAtTieBreakMatchesQuery pins the tie-break every answer path
// shares: with every door open, candidates 8 and 7 tie at objective 8, and
// QueryAt must answer 7, the lowest ID, as Query does, whatever the order
// of the candidate list.
func TestQueryAtTieBreakMatchesQuery(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 1})
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{1},
		Candidates: []ifls.PartitionID{8, 7},
		Clients:    []ifls.Client{centre(v, 8, 0), centre(v, 7, 1)},
	}
	static := answer(t, ix, q, ifls.QueryOptions{}).MinMax
	timed, err := ix.QueryAt(context.Background(), ix.NewTimetable(), 12*time.Hour, q)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]ifls.Result{"Query": static, "QueryAt": timed} {
		if !r.Found || r.Answer != 7 || r.Objective != 8 {
			t.Errorf("%s = %+v, want partition 7 at objective 8", name, r)
		}
	}
}

// TestQueryAtShiftsAnswerWhenDoorsClose: on Corridor3, R2 (partition 3)
// has one door, open 9:00–17:00. At night R2 is unreachable as a
// candidate, and a client sealed inside it cannot be improved.
func TestQueryAtShiftsAnswerWhenDoorsClose(t *testing.T) {
	v := testvenue.Corridor3()
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	tt := ix.NewTimetable()
	if err := tt.SetDoor(2, ifls.Daily(9*time.Hour, 17*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Existing facility R0 (partition 1); candidates R1 and R2
	// (partitions 2 and 3); the client sits in R1, so R1 wins by day and
	// by night.
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{1},
		Candidates: []ifls.PartitionID{2, 3},
		Clients:    []ifls.Client{centre(v, 2, 0)},
	}
	for _, at := range []time.Duration{12 * time.Hour, 3 * time.Hour} {
		res, err := ix.QueryAt(ctx, tt, at, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Answer != 2 {
			t.Fatalf("answer at %v = %+v, want R1 (partition 2)", at, res)
		}
	}
	// A client sealed inside R2 at night reaches neither R0 nor the
	// candidate R1: nothing improves on the infinite status quo.
	sealed := &ifls.Query{
		Existing:   []ifls.PartitionID{1},
		Candidates: []ifls.PartitionID{2},
		Clients:    []ifls.Client{centre(v, 3, 0)},
	}
	res, err := ix.QueryAt(ctx, tt, 3*time.Hour, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("sealed client should not be improvable: %+v", res)
	}
}

// TestTimedQueriesRejectForeignTimetables: the timed API takes door IDs
// from the timetable, so a nil timetable, or one created over another
// venue, must be rejected with ErrInvalidQuery instead of panicking or
// masking the wrong doors. A CPH index is asked with an MC timetable that
// closes a door, and with none.
func TestTimedQueriesRejectForeignTimetables(t *testing.T) {
	cph, err := ifls.SampleVenue("CPH")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ifls.NewIndex(cph)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ifls.SampleVenue("MC")
	if err != nil {
		t.Fatal(err)
	}
	mcIx, err := ifls.NewIndex(mc)
	if err != nil {
		t.Fatal(err)
	}
	foreign := mcIx.NewTimetable()
	if err := foreign.SetDoor(0, ifls.Daily(9*time.Hour, 17*time.Hour)); err != nil {
		t.Fatal(err)
	}
	q, err := ifls.RandomQuery(cph, 5, 10, 50, ifls.Uniform, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := q.Clients[0].Loc, q.Clients[1].Loc
	for name, tt := range map[string]*ifls.Timetable{"nil": nil, "MC": foreign} {
		if _, err := ix.QueryAt(context.Background(), tt, 3*time.Hour, q); !errors.Is(err, ifls.ErrInvalidQuery) {
			t.Errorf("QueryAt with a %s timetable: err = %v, want ErrInvalidQuery", name, err)
		}
		if _, err := ix.DistanceAt(tt, 3*time.Hour, a, b); !errors.Is(err, ifls.ErrInvalidQuery) {
			t.Errorf("DistanceAt with a %s timetable: err = %v, want ErrInvalidQuery", name, err)
		}
	}
	if _, err := ix.DistanceAt(ix.NewTimetable(), 3*time.Hour, a, b); err != nil {
		t.Errorf("DistanceAt with the index's own timetable: %v", err)
	}
}
