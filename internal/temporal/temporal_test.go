package temporal

import (
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

func h(n float64) time.Duration { return time.Duration(n * float64(time.Hour)) }

func TestScheduleOpenAt(t *testing.T) {
	s := Daily(h(9), h(17))
	cases := []struct {
		t    time.Duration
		want bool
	}{
		{h(8.99), false},
		{h(9), true},
		{h(12), true},
		{h(16.99), true},
		{h(17), false}, // half-open
		{h(23), false},
		{h(9) + 24*time.Hour, true},  // next day wraps
		{h(12) - 24*time.Hour, true}, // negative wraps
	}
	for _, c := range cases {
		if got := s.OpenAt(c.t); got != c.want {
			t.Errorf("OpenAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if !Always.OpenAt(h(3)) {
		t.Error("empty schedule must always be open")
	}
}

func TestScheduleValidate(t *testing.T) {
	good := []Schedule{
		Daily(h(9), h(17)),
		Daily(h(22), h(2)), // wraps midnight
		Daily(h(22), 0),    // wrap form of [22h, 24h)
		{Intervals: []Interval{{h(22), h(2)}, {h(9), h(17)}}}, // wrap + plain
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("valid schedule %d rejected: %v", i, err)
		}
	}
	bad := []Schedule{
		Daily(h(9), h(9)),  // empty/ambiguous
		Daily(-h(1), h(9)), // negative
		Daily(h(9), h(25)), // beyond a day
		Daily(h(24), h(2)), // Open out of range
		{Intervals: []Interval{{h(9), h(17)}, {h(16), h(20)}}}, // overlap
		{Intervals: []Interval{{h(22), h(2)}, {h(1), h(5)}}},   // wrap overlaps after midnight
		{Intervals: []Interval{{h(22), h(2)}, {h(23), h(1)}}},  // two wraps overlap
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestScheduleWrapOpenAt(t *testing.T) {
	s := Daily(h(22), h(2)) // open 22:00 through 02:00
	cases := []struct {
		t    time.Duration
		want bool
	}{
		{0, true}, // midnight itself is inside the wrap
		{h(1.999), true},
		{h(2), false}, // half-open at the close
		{h(12), false},
		{h(21.999), false},
		{h(22), true},
		{h(23.999), true},
		{h(24), true},          // normalizes to 0h
		{h(23) + h(24), true},  // next day
		{h(12) - h(24), false}, // negative wraps
	}
	for _, c := range cases {
		if got := s.OpenAt(c.t); got != c.want {
			t.Errorf("wrap OpenAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Wrap ending exactly at midnight: [22h, 24h) expressed as Daily(22h, 0).
	end := Daily(h(22), 0)
	if !end.OpenAt(h(23)) || end.OpenAt(0) || end.OpenAt(h(2)) {
		t.Errorf("Daily(22h, 0) must cover [22h, 24h) only")
	}
}

func TestTimetableMaskAndSetDoor(t *testing.T) {
	v := testvenue.Corridor3()
	tt := NewTimetable(v)
	if err := tt.SetDoor(1, Daily(h(9), h(17))); err != nil {
		t.Fatal(err)
	}
	if err := tt.SetDoor(99, Always); err == nil {
		t.Error("expected error for unknown door")
	}
	open := tt.Mask(h(12))
	if !open[0] || !open[1] || !open[2] {
		t.Errorf("noon mask = %v, want all open", open)
	}
	night := tt.Mask(h(3))
	if !night[0] || night[1] || !night[2] {
		t.Errorf("night mask = %v, want door 1 closed", night)
	}
}

func TestSnapshot(t *testing.T) {
	v := testvenue.MultiDoorRooms()
	tt := NewTimetable(v)
	if err := tt.SetDoor(2, Daily(h(9), h(17))); err != nil {
		t.Fatal(err)
	}
	snap, doorMap, err := tt.Snapshot(h(3))
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.NumDoors() != v.NumDoors()-1 {
		t.Fatalf("snapshot has %d doors, want %d", snap.NumDoors(), v.NumDoors()-1)
	}
	if len(doorMap) != v.NumDoors() {
		t.Fatalf("door map covers %d doors, want %d", len(doorMap), v.NumDoors())
	}
	// The closed door maps to NoDoor; every open door maps to a snapshot
	// door at the same location joining the same partitions.
	open := tt.Mask(h(3))
	for old := range v.Doors {
		nd := doorMap.Apply(indoor.DoorID(old))
		if !open[old] {
			if nd != indoor.NoDoor {
				t.Fatalf("closed door %d maps to %d, want NoDoor", old, nd)
			}
			continue
		}
		if nd == indoor.NoDoor {
			t.Fatalf("open door %d maps to NoDoor", old)
		}
		od, sd := v.Door(indoor.DoorID(old)), snap.Door(nd)
		if od.Loc != sd.Loc || od.A != sd.A || od.B != sd.B {
			t.Fatalf("door %d→%d mismatch: %+v vs %+v", old, nd, od, sd)
		}
	}
	if doorMap.Apply(indoor.DoorID(v.NumDoors())) != indoor.NoDoor ||
		doorMap.Apply(indoor.NoDoor) != indoor.NoDoor {
		t.Fatal("out-of-range door IDs must map to NoDoor")
	}
	// Closing a partition's only door disconnects: snapshot must fail.
	v2 := testvenue.Corridor3()
	tt2 := NewTimetable(v2)
	if err := tt2.SetDoor(0, Daily(h(9), h(17))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tt2.Snapshot(h(3)); err == nil {
		t.Fatal("expected snapshot failure for disconnected venue")
	}
}

func TestSnapshotDoorMapRoundTrip(t *testing.T) {
	// Re-applying the timetable's schedules to its own snapshot through the
	// door map must agree with the original timetable: at the snapshot
	// instant every surviving door keeps its schedule, so masking the
	// snapshot at the same instant leaves all snapshot doors open, and at
	// other instants the translated mask matches the original door's state.
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2, InterRoomDoors: true})
	tt := NewTimetable(v)
	// Close two inter-room doors overnight; the corridor keeps things
	// connected. Find inter-room doors: both sides are rooms.
	var interRoom []indoor.DoorID
	for i := range v.Doors {
		d := &v.Doors[i]
		if d.B == indoor.NoPartition {
			continue
		}
		if v.Partition(d.A).Kind == indoor.Room && v.Partition(d.B).Kind == indoor.Room {
			interRoom = append(interRoom, d.ID)
		}
	}
	if len(interRoom) < 2 {
		t.Fatalf("grid venue has %d inter-room doors, want >= 2", len(interRoom))
	}
	// interRoom[0] is closed at the snapshot instant (dropped from the
	// snapshot); interRoom[1] is open then (survives, renumbered when it
	// sits after the dropped door) and must carry its schedule across.
	scheds := map[indoor.DoorID]Schedule{
		interRoom[0]: Daily(h(9), h(17)),
		interRoom[1]: Daily(h(2), h(17)),
	}
	for d, s := range scheds {
		if err := tt.SetDoor(d, s); err != nil {
			t.Fatal(err)
		}
	}
	snap, doorMap, err := tt.Snapshot(h(3))
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if doorMap.Apply(interRoom[0]) != indoor.NoDoor {
		t.Fatalf("door %d is closed at 3h, must be dropped", interRoom[0])
	}
	if doorMap.Apply(interRoom[1]) == indoor.NoDoor {
		t.Fatalf("door %d is open at 3h, must survive", interRoom[1])
	}
	snapTT := NewTimetable(snap)
	for old, sched := range scheds {
		if nd := doorMap.Apply(old); nd != indoor.NoDoor {
			if err := snapTT.SetDoor(nd, sched); err != nil {
				t.Fatalf("re-applying schedule for door %d→%d: %v", old, nd, err)
			}
		}
	}
	// Round-trip: at every probe instant, each surviving door's open state
	// under the translated timetable equals the original door's state.
	for _, probe := range []time.Duration{0, h(3), h(9), h(12), h(17), h(23.999)} {
		origMask := tt.Mask(probe)
		snapMask := snapTT.Mask(probe)
		for old := range v.Doors {
			nd := doorMap.Apply(indoor.DoorID(old))
			if nd == indoor.NoDoor {
				continue
			}
			if snapMask[nd] != origMask[old] {
				t.Fatalf("at %v door %d→%d: snapshot open=%v, original open=%v",
					probe, old, nd, snapMask[nd], origMask[old])
			}
		}
	}
}
