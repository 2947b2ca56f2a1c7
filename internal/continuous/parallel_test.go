package continuous

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// Crowd scenario constants, as in the tick end-to-end workloads: 30 s
// ticks, a 2 min dwell, a crowd stepped 30 simulated minutes before the
// engine starts at 8:00, and with doors, six doors closed in turn for
// 4 min each, so every 8th tick crosses into a new era.
const (
	crowdDT       = 30 * time.Second
	doorPeriod    = 4 * time.Minute
	rotatingDoors = 6
)

// newCrowd builds a standing query over the named paper venue: |Fe|=20 and
// |Fn|=50 facilities and, with doors, the door rotation (rotateDoors), both
// drawn from one rng seeded with seed; walkers walkers seeded with seed.
func newCrowd(tb testing.TB, name string, walkers int, seed int64, doors bool) *Engine {
	tb.Helper()
	v, err := venues.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rng := rand.New(rand.NewSource(seed))
	fe, fn, err := workload.NewGenerator(v).Facilities(20, 50, rng)
	if err != nil {
		tb.Fatal(err)
	}
	var tt *temporal.Timetable
	if doors {
		tt = rotateDoors(tb, v, rng)
	}
	sim, err := motion.NewSimulation(v, tree.Graph(), motion.Config{Walkers: walkers, Dwell: 2 * time.Minute, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	for t := time.Duration(0); t < 30*time.Minute; t += crowdDT {
		sim.Step(crowdDT)
	}
	eng, err := New(Config{Tree: tree, Sim: sim, Existing: fe, Candidates: fn, Timetable: tt, ClockStart: h(8)})
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// rotateDoors picks, in the order rng permutes v's doors, rotatingDoors
// doors whose closing leaves the venue connected, and closes them in turn
// for doorPeriod each, all day: the first from 00:00, the second from
// 00:04, and so on, the first again once every door has had its turn.
func rotateDoors(tb testing.TB, v *indoor.Venue, rng *rand.Rand) *temporal.Timetable {
	tb.Helper()
	const cycle = rotatingDoors * doorPeriod
	tt := temporal.NewTimetable(v)
	n := 0
	for _, d := range rng.Perm(v.NumDoors()) {
		if n == rotatingDoors {
			return tt
		}
		closed, reopened := time.Duration(n)*doorPeriod, time.Duration(n+1)*doorPeriod
		var open temporal.Schedule
		for t := time.Duration(0); t < 24*time.Hour; t += cycle {
			if closed > 0 {
				open.Intervals = append(open.Intervals, temporal.Interval{Open: t, Close: t + closed})
			}
			if reopened < cycle {
				open.Intervals = append(open.Intervals, temporal.Interval{Open: t + reopened, Close: t + cycle})
			}
		}
		id := indoor.DoorID(d)
		if err := tt.SetDoor(id, open); err != nil {
			tb.Fatal(err)
		}
		if _, _, err := tt.Snapshot(closed); err != nil {
			// Closing this door strands a partition.
			if err := tt.SetDoor(id, temporal.Always); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		n++
	}
	tb.Fatalf("venue %s has fewer than %d doors that can close", v.Name, rotatingDoors)
	return nil
}

// sameSig reports whether two signatures agree bit for bit in every field.
func sameSig(a, b *partSig) bool {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return slices.Equal(a.doors, b.doors) && slices.Equal(a.locs, b.locs) &&
		math.Float64bits(a.stair) == math.Float64bits(b.stair) &&
		bits(a.dist, b.dist) && bits(a.nnMin, b.nnMin) && bits(a.candMin, b.candMin) &&
		slices.Equal(a.order, b.order)
}

// TestParallelSignaturesMatchSerial pins the fanned-out signing
// (era.sign) to serial signing, over 100 ticks of an MC crowd under the
// six-door rotation and of a CH crowd. After New and after every tick:
//   - every memoized signature equals, in every bit, a fresh era.compute on
//     the test goroutine (a signature is recomputed when it first appears
//     and compared with that copy on every later tick);
//   - the memo holds exactly the partitions a serial engine signs: since the
//     era began, those of the snapshots and, on the tick that crossed into
//     it, of the rows valid before the crossing;
//   - the Signed counts of the era's ticks add up to the memo's growth.
//
// Run with -cpu 1,2 it covers the serial and the fanned-out path.
func TestParallelSignaturesMatchSerial(t *testing.T) {
	const ticks = 100
	for _, tc := range []struct {
		venue   string
		walkers int
		doors   bool
	}{{"MC", 150, true}, {"CH", 60, false}} {
		t.Run(tc.venue, func(t *testing.T) {
			e := newCrowd(t, tc.venue, tc.walkers, 1, tc.doors)
			n := e.baseVenue.NumPartitions()
			fresh := make(map[*partSig]*partSig)
			want := make([]bool, n)
			er, signed, multi, transitions := e.era, 0, 0, 0
			// check compares the memo with want and the fresh copies, and
			// returns how many partitions it holds.
			check := func(tick int) int {
				t.Helper()
				for _, c := range e.snap {
					want[c.Part] = true
				}
				memo := 0
				for p, s := range er.sigs {
					if (s != nil) != want[p] {
						t.Fatalf("tick %d: partition %d memoized %v, a serial engine %v", tick, p, s != nil, want[p])
					}
					if s == nil {
						continue
					}
					memo++
					f, ok := fresh[s]
					if !ok {
						f = er.compute(indoor.PartitionID(p))
						fresh[s] = f
					}
					if !sameSig(s, f) {
						t.Fatalf("tick %d: partition %d's memoized signature differs from a fresh compute", tick, p)
					}
				}
				return memo
			}
			signed = check(0) // New's signatures, which Stats does not count
			for tick := 1; tick <= ticks; tick++ {
				var valid []indoor.PartitionID
				for i := range e.rows {
					if e.rows[i].valid {
						valid = append(valid, e.rows[i].part)
					}
				}
				before := e.Stats()
				if _, err := e.Tick(crowdDT); err != nil {
					t.Fatal(err)
				}
				st := e.Stats()
				if e.era != er {
					er, signed = e.era, 0
					clear(fresh)
					clear(want)
					for _, p := range valid {
						want[p] = true
					}
					transitions++
				}
				s := int(st.Signed - before.Signed)
				signed += s
				if s >= 2 {
					multi++
				}
				if memo := check(tick); memo != signed {
					t.Fatalf("tick %d: the era's ticks signed %d partitions, its memo holds %d", tick, signed, memo)
				}
			}
			if tc.doors && transitions < ticks/8-1 {
				t.Fatalf("%d transitions in %d ticks; the rotation closes a door every 8th tick", transitions, ticks)
			}
			if multi == 0 {
				t.Fatal("no tick signed two partitions; the fan-out never ran")
			}
		})
	}
}
