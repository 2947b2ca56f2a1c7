package motion

import (
	"fmt"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// TestReportedPositionInReportedPartition pins the object layer the
// continuous engine reads: every walking report of a 500-walker crowd (2
// min dwell, 360 ticks of 30 s, seeds 1-3) puts the walker inside the
// partition it is reported in, on a 3-level grid and on all four paper
// venues. A point passes when the partition's rectangle contains it or
// when it is one of the partition's door locations (a stairwell's doors on
// its upper level lie outside its rectangle). Every trajectory the crowd
// plans is also checked leg by leg: each door of the route borders the
// labels of both legs it joins. On MC a shortest door path can run along a
// corridor through a collinear door it does not cross; a label that
// follows Door.Other there names the room behind that door for the rest
// of the trip.
func TestReportedPositionInReportedPartition(t *testing.T) {
	const (
		walkers = 500
		dwell   = 2 * time.Minute
		step    = 30 * time.Second
		ticks   = 360
	)
	for _, name := range []string{"grid", "MC", "CH", "CPH", "MZB"} {
		t.Run(name, func(t *testing.T) {
			v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 3, InterRoomDoors: true})
			if name != "grid" {
				var err error
				if v, err = venues.ByName(name); err != nil {
					t.Fatal(err)
				}
			}
			g := d2d.New(v)
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					sim, err := NewSimulation(v, g, Config{Walkers: walkers, Dwell: dwell, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					// checked[i] is the first waypoint of walker i's last
					// checked trip; each new trip has a new waypoint slice.
					checked := make([]*Waypoint, walkers)
					reports, outside, badLegs := 0, 0, 0
					for k := 0; k < ticks; k++ {
						sim.Step(step)
						for i, w := range sim.walkers {
							if wps := w.traj.Waypoints; checked[i] != &wps[0] {
								checked[i] = &wps[0]
								if err := checkLegLabels(g, w.traj); err != nil {
									badLegs++
									t.Errorf("walker %d, tick %d: %v", i, k, err)
								}
							}
							if w.restSec > 0 {
								continue // dwelling at the goal, not walking
							}
							reports++
							if !inPartition(v, w.loc, w.part) {
								outside++
								t.Errorf("walker %d, tick %d: reported at %v in %d (%s), which does not hold it",
									i, k, w.loc, w.part, v.Partition(w.part).Name)
							}
						}
						if outside+badLegs > 20 {
							t.Fatalf("stopping after %d reports outside their partition and %d mislabelled trips", outside, badLegs)
						}
					}
					if reports == 0 {
						t.Fatal("no walking report checked")
					}
					t.Logf("%d walking reports, %d outside their partition, %d mislabelled trips", reports, outside, badLegs)
				})
			}
		})
	}
}

// inPartition reports whether pt lies in partition p: inside its
// rectangle, boundary included, or at one of its doors.
func inPartition(v *indoor.Venue, pt geom.Point, p indoor.PartitionID) bool {
	if p == indoor.NoPartition {
		return false
	}
	if v.Partition(p).Rect.Contains(pt) {
		return true
	}
	for _, d := range v.Partition(p).Doors {
		if v.Door(d).Loc == pt {
			return true
		}
	}
	return false
}

// checkLegLabels plans tr's route again and returns an error when a door
// on it does not border the label of the leg arriving at it or of the leg
// leaving it.
func checkLegLabels(g *d2d.Graph, tr Trajectory) error {
	wps := tr.Waypoints
	first, last := wps[0], wps[len(wps)-1]
	doors, _ := g.PointRoute(first.Loc, first.LegPart, last.Loc, last.LegPart)
	if len(doors) != len(wps)-2 {
		return fmt.Errorf("%d waypoints for a route through %d doors", len(wps), len(doors))
	}
	for k, d := range doors {
		in, out := wps[k+1].LegPart, wps[k+2].LegPart
		if door := g.Venue().Door(d); !door.Borders(in) || !door.Borders(out) {
			return fmt.Errorf("door %d (partitions %d, %d) joins legs labelled %d and %d", d, door.A, door.B, in, out)
		}
	}
	return nil
}
