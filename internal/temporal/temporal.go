// Package temporal adds time-variation awareness to the indoor model, in
// the spirit of the ITSPQ line of work the paper surveys (Liu et al., TKDE
// 2023): doors carry opening schedules, and distance computations at a time
// instant ignore closed doors.
//
// The package holds schedules, masks and snapshots only; it computes no
// distances. The VIP-tree's distance matrices assume a static topology,
// so a timed query passes Mask to d2d.Graph.Masked and evaluates on the
// masked door-to-door graph: exact, with Dijkstra cost per source door.
// Workloads that issue many queries against the same snapshot can instead
// materialize the snapshot as a venue (when it stays connected) and index
// it normally.
//
// # Snapshot door identity
//
// Materializing a snapshot removes closed doors, so the snapshot venue's
// DoorIDs are renumbered: door IDs are dense indexes, and skipping a closed
// door shifts every later ID down. Snapshot therefore returns an explicit
// old→new DoorMap alongside the venue; any structure keyed by the original
// venue's door IDs — this Timetable included — must be translated through
// that map before it is applied to the snapshot venue. Partition IDs are
// never renumbered (partitions are copied unconditionally, in order).
//
// # Wrapping schedules
//
// An opening window may wrap midnight: Daily(22h, 2h) is open from 22:00
// through 02:00 the next day. Wrapping intervals (Open > Close) are split
// internally into [Open, 24h) + [0, Close), so OpenAt, Mask, and Validate
// all see the equivalent non-wrapping form. Open == Close is rejected as
// ambiguous (it could mean "never" or "always"); use Always, or omit the
// door, for an always-open door.
package temporal

import (
	"fmt"
	"sort"
	"time"

	"github.com/indoorspatial/ifls/internal/indoor"
)

// Interval is a half-open daily opening window [Open, Close). An interval
// with Open > Close wraps midnight: it covers [Open, 24h) and [0, Close).
type Interval struct {
	Open, Close time.Duration
}

// wraps reports whether the interval crosses midnight.
func (iv Interval) wraps() bool { return iv.Open > iv.Close }

// Schedule is a door's daily opening schedule. An empty schedule means
// always open.
type Schedule struct {
	Intervals []Interval
}

// Always is the always-open schedule.
var Always = Schedule{}

// Daily returns a single-window schedule. open > close expresses a window
// that wraps midnight, e.g. Daily(22h, 2h) for a bar open 22:00–02:00.
func Daily(open, close time.Duration) Schedule {
	return Schedule{Intervals: []Interval{{Open: open, Close: close}}}
}

// split appends the interval's non-wrapping equivalent(s) to dst: the
// interval itself, or — when it wraps midnight — the [Open, 24h) and
// [0, Close) halves.
func (iv Interval) split(dst []Interval) []Interval {
	if !iv.wraps() {
		return append(dst, iv)
	}
	dst = append(dst, Interval{Open: iv.Open, Close: 24 * time.Hour})
	if iv.Close > 0 {
		dst = append(dst, Interval{Open: 0, Close: iv.Close})
	}
	return dst
}

// OpenAt reports whether the schedule is open at time-of-day t.
func (s Schedule) OpenAt(t time.Duration) bool {
	if len(s.Intervals) == 0 {
		return true
	}
	t = normalizeDay(t)
	for _, iv := range s.Intervals {
		if iv.wraps() {
			if iv.Open <= t || t < iv.Close {
				return true
			}
			continue
		}
		if iv.Open <= t && t < iv.Close {
			return true
		}
	}
	return false
}

// Validate checks that intervals are well-formed and non-overlapping.
// Bounds: 0 <= Open < 24h, 0 < Close <= 24h for plain intervals; a
// wrapping interval (Open > Close) additionally needs Close >= 0 and is
// checked in its split form. Open == Close is rejected as ambiguous —
// use Always (or no schedule) for an always-open door.
func (s Schedule) Validate() error {
	var ivs []Interval
	for _, iv := range s.Intervals {
		if iv.Open == iv.Close {
			return fmt.Errorf("temporal: empty interval [%v, %v): use Always for an always-open door", iv.Open, iv.Close)
		}
		if iv.Open < 0 || iv.Open >= 24*time.Hour || iv.Close < 0 || iv.Close > 24*time.Hour {
			return fmt.Errorf("temporal: bad interval [%v, %v)", iv.Open, iv.Close)
		}
		ivs = iv.split(ivs)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Open < ivs[j].Open })
	for i, iv := range ivs {
		if i > 0 && iv.Open < ivs[i-1].Close {
			return fmt.Errorf("temporal: overlapping intervals at %v", iv.Open)
		}
	}
	return nil
}

func normalizeDay(t time.Duration) time.Duration {
	day := 24 * time.Hour
	t %= day
	if t < 0 {
		t += day
	}
	return t
}

// Timetable assigns schedules to a venue's doors. Doors without an explicit
// schedule are always open.
type Timetable struct {
	venue *indoor.Venue
	sched map[indoor.DoorID]Schedule
}

// NewTimetable creates an empty timetable for v.
func NewTimetable(v *indoor.Venue) *Timetable {
	return &Timetable{venue: v, sched: make(map[indoor.DoorID]Schedule)}
}

// Venue returns the venue the timetable was created for. Its door IDs
// name that venue's doors; callers that apply the timetable to an index
// compare this pointer with the index's venue.
func (tt *Timetable) Venue() *indoor.Venue { return tt.venue }

// SetDoor assigns a schedule to a door.
func (tt *Timetable) SetDoor(d indoor.DoorID, s Schedule) error {
	if int(d) < 0 || int(d) >= tt.venue.NumDoors() {
		return fmt.Errorf("temporal: unknown door %d", d)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	tt.sched[d] = s
	return nil
}

// OpenAt reports whether door d is open at time-of-day t.
func (tt *Timetable) OpenAt(d indoor.DoorID, t time.Duration) bool {
	s, ok := tt.sched[d]
	if !ok {
		return true
	}
	return s.OpenAt(t)
}

// Mask returns the per-door open flags at time-of-day t.
func (tt *Timetable) Mask(t time.Duration) []bool {
	open := make([]bool, tt.venue.NumDoors())
	for i := range open {
		open[i] = tt.OpenAt(indoor.DoorID(i), t)
	}
	return open
}

// DoorMap translates the originating venue's door IDs into a snapshot
// venue's IDs. Indexed by original DoorID; closed doors, absent from the
// snapshot, map to indoor.NoDoor.
type DoorMap []indoor.DoorID

// Apply returns the snapshot venue's ID for an original door, or
// indoor.NoDoor when that door is closed in the snapshot (or out of range).
func (m DoorMap) Apply(d indoor.DoorID) indoor.DoorID {
	if int(d) < 0 || int(d) >= len(m) {
		return indoor.NoDoor
	}
	return m[d]
}

// Snapshot materializes the venue as it stands at time-of-day t: closed
// doors removed. Removing doors renumbers the survivors (door IDs are dense
// indexes), so the returned DoorMap records, for every original door, its
// ID in the snapshot venue — indoor.NoDoor for closed doors. Schedules,
// masks, and any other door-keyed state built against the original venue
// must be translated through that map before use on the snapshot (see the
// package documentation). Partition IDs carry over unchanged.
//
// Snapshot fails when removing the closed doors disconnects the venue (the
// indoor model requires connectivity); callers fall back to masked-graph
// queries (d2d.Graph.Masked), which tolerate unreachable regions by
// reporting +Inf.
func (tt *Timetable) Snapshot(t time.Duration) (*indoor.Venue, DoorMap, error) {
	v := tt.venue
	open := tt.Mask(t)
	b := indoor.NewBuilder(fmt.Sprintf("%s@%v", v.Name, normalizeDay(t)))
	for i := range v.Partitions {
		p := &v.Partitions[i]
		switch p.Kind {
		case indoor.Room:
			b.AddRoom(p.Rect, p.Name, p.Category)
		case indoor.Corridor:
			b.AddCorridor(p.Rect, p.Name)
		case indoor.Stair:
			b.AddStair(p.Rect, p.Name, p.StairLength)
		}
	}
	doorMap := make(DoorMap, len(v.Doors))
	next := indoor.DoorID(0)
	for i := range v.Doors {
		if !open[i] {
			doorMap[i] = indoor.NoDoor
			continue
		}
		d := &v.Doors[i]
		b.AddDoor(d.Loc, d.A, d.B)
		doorMap[i] = next
		next++
	}
	snap, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return snap, doorMap, nil
}
