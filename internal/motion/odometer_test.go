package motion

import (
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// TestOdometerBoundsIndoorDistance is the property the continuous
// engine's drift bounds rest on: between any two reported positions of a
// walker, each a point of its reported partition, the odometer grows by
// at least the indoor distance between them and never falls. It runs 320
// ticks on a 3-level grid, on CH (4 levels, 3 stairwells) and on MC; it
// checks every pair of reported positions up to window ticks apart and
// requires stairwell crossings among the pairs. It also shows why the raw walked
// distance does not do: past a stair leg's midpoint the reported position
// jumps a whole stair length ahead of the walker's steps.
func TestOdometerBoundsIndoorDistance(t *testing.T) {
	ch, err := venues.ByName("CH")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := venues.ByName("MC")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		venue   *indoor.Venue
		walkers int
		window  int
	}{
		{testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 3, InterRoomDoors: true}), 12, 40},
		{ch, 16, 6},
		{mc, 40, 6},
	}
	for _, tc := range cases {
		t.Run(tc.venue.Name, func(t *testing.T) {
			g := d2d.New(tc.venue)
			sim, err := NewSimulation(tc.venue, g, Config{Walkers: tc.walkers, Dwell: 20 * time.Second, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			type report struct {
				loc       geom.Point
				part      indoor.PartitionID
				odo, walk float64
			}
			const ticks = 320
			hist := make([][]report, tc.walkers)
			record := func() {
				for i, w := range sim.walkers {
					hist[i] = append(hist[i], report{w.loc, w.part, sim.Odometer(i), w.cumDist})
				}
			}
			record()
			for k := 0; k < ticks; k++ {
				sim.Step(7 * time.Second)
				record()
			}
			pairs, stairPairs, walkShort := 0, 0, 0
			for i, h := range hist {
				for a := range h {
					for b := a + 1; b < len(h) && b <= a+tc.window; b++ {
						x, y := h[a], h[b]
						if y.odo < x.odo {
							t.Fatalf("walker %d: odometer fell from %v to %v", i, x.odo, y.odo)
						}
						_, d := g.PointRoute(x.loc, x.part, y.loc, y.part)
						drift := y.odo - x.odo
						if d > drift*(1+1e-12)+1e-9 {
							t.Fatalf("walker %d, ticks %d..%d: indoor distance %v > odometer drift %v (%v in %d to %v in %d)",
								i, a, b, d, drift, x.loc, x.part, y.loc, y.part)
						}
						pairs++
						if x.loc.Level != y.loc.Level {
							stairPairs++
						}
						if d > (y.walk-x.walk)+1e-6 {
							walkShort++
						}
					}
				}
			}
			if stairPairs == 0 {
				t.Fatalf("%d pairs checked, none across levels", pairs)
			}
			if walkShort == 0 {
				t.Errorf("walked distance bounded the indoor distance on all %d pairs; expected stair midpoints to break it", pairs)
			}
			t.Logf("%d pairs, %d across levels, %d where walked distance falls short", pairs, stairPairs, walkShort)
		})
	}
}
