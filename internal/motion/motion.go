// Package motion simulates moving indoor clients — the scenario the IFLS
// paper names as future work ("we plan to consider moving clients") and
// motivates in its introduction (dynamic crowds that force the facility
// choice to be recomputed).
//
// Clients walk at constant speed along exact shortest indoor routes
// (computed on the door-to-door graph) toward goal rooms; on arrival they
// dwell and then pick a new goal. A Simulation advances all clients in
// fixed time steps and can snapshot the population as a core clients slice
// at any instant, ready to feed an IFLS query. The object layer of the
// composite indoor index (which partition is each object in, kept current
// as objects move) falls out of the trajectory bookkeeping.
package motion

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// Waypoint is one vertex of a trajectory: a located point, the partition
// the leg *arriving* at this waypoint crosses (the start partition for the
// first waypoint), and the cumulative distance from the start.
type Waypoint struct {
	Loc geom.Point
	// LegPart is the partition of the leg ending at this waypoint.
	LegPart indoor.PartitionID
	// DistFromStart is the walked distance when reaching this waypoint.
	DistFromStart float64
}

// Trajectory is a shortest indoor route annotated for interpolation.
type Trajectory struct {
	Waypoints []Waypoint
	// Length is the total route distance.
	Length float64
}

// PlanTrajectory computes a shortest-route trajectory from a located start
// to a located goal. The waypoints are the start, each door crossed, and
// the goal. Each leg is labelled with the partition it walks: the start's
// for the first leg, the goal's for the last, and between two doors the
// partition of the door-graph edge joining them (legPart).
func PlanTrajectory(g *d2d.Graph, from geom.Point, fromPart indoor.PartitionID, to geom.Point, toPart indoor.PartitionID) Trajectory {
	v := g.Venue()
	doors, total := g.PointRoute(from, fromPart, to, toPart)
	tr := Trajectory{Length: total}
	tr.Waypoints = append(tr.Waypoints, Waypoint{Loc: from, LegPart: fromPart})
	walked := 0.0
	prevLoc, part := from, fromPart
	for i, d := range doors {
		walked += v.PointDoorDist(part, prevLoc, d)
		prevLoc = v.Door(d).Loc
		tr.Waypoints = append(tr.Waypoints, Waypoint{Loc: prevLoc, LegPart: part, DistFromStart: walked})
		part = toPart
		if i+1 < len(doors) {
			part = legPart(v, d, doors[i+1])
		}
	}
	tr.Waypoints = append(tr.Waypoints, Waypoint{Loc: to, LegPart: toPart, DistFromStart: tr.Length})
	return tr
}

// legPart returns the partition of the door-graph edge from door a to door
// b: of the partitions bordering both, the one with the least
// IntraDoorDist, the lowest ID on a tie. d2d.New lists a door's edges in
// partition order, so this is the edge a shortest-path search keeps.
func legPart(v *indoor.Venue, a, b indoor.DoorID) indoor.PartitionID {
	da, db := v.Door(a), v.Door(b)
	part, best := indoor.NoPartition, math.Inf(1)
	for _, p := range [2]indoor.PartitionID{min(da.A, da.B), max(da.A, da.B)} {
		if p == indoor.NoPartition || !db.Borders(p) {
			continue
		}
		if d := v.IntraDoorDist(p, a, b); d < best {
			part, best = p, d
		}
	}
	return part
}

// At returns the position and partition after walking dist along the
// trajectory (clamped to the endpoints).
func (tr *Trajectory) At(dist float64) (geom.Point, indoor.PartitionID) {
	p, part, _ := tr.at(dist)
	return p, part
}

// at is At that also returns the route coordinate of the reported
// position: how far along the route the point At reports lies. That is
// dist itself on a planar leg and the coordinate of the reported door on
// a stairwell leg. The coordinate never decreases as dist grows, and
// between two reported positions, each a point of its reported
// partition, the indoor distance is at most the difference: the route
// joins them leg by leg, each leg inside the partition it is labelled
// with and priced as Venue.PointDoorDist prices it.
func (tr *Trajectory) at(dist float64) (geom.Point, indoor.PartitionID, float64) {
	wps := tr.Waypoints
	if len(wps) == 0 {
		return geom.Point{}, indoor.NoPartition, 0
	}
	if dist <= 0 {
		return wps[0].Loc, wps[0].LegPart, 0
	}
	last := wps[len(wps)-1]
	if dist >= tr.Length {
		return last.Loc, last.LegPart, tr.Length
	}
	for i := 1; i < len(wps); i++ {
		if dist > wps[i].DistFromStart {
			continue
		}
		a, b := wps[i-1], wps[i]
		segLen := b.DistFromStart - a.DistFromStart
		if segLen <= 0 {
			return b.Loc, b.LegPart, b.DistFromStart
		}
		f := (dist - a.DistFromStart) / segLen
		if a.Loc.Level != b.Loc.Level {
			// A stairwell leg has no planar interpolation: the walker
			// reports the nearer end's door, located in the partition it
			// is passing through on that side, so snapshots always carry
			// a position inside the reported partition.
			if f < 0.5 {
				return a.Loc, wps[i-1].LegPart, a.DistFromStart
			}
			if i+1 < len(wps) {
				return b.Loc, wps[i+1].LegPart, b.DistFromStart
			}
			return b.Loc, b.LegPart, b.DistFromStart
		}
		p := geom.Pt(a.Loc.X+f*(b.Loc.X-a.Loc.X), a.Loc.Y+f*(b.Loc.Y-a.Loc.Y), a.Loc.Level)
		return p, b.LegPart, dist
	}
	return last.Loc, last.LegPart, tr.Length
}

// Walker is one moving client.
type Walker struct {
	ID    int32
	Speed float64 // meters per second
	// Dwell is how long the walker pauses at a goal before re-planning.
	Dwell time.Duration

	traj   Trajectory
	walked float64
	// restSec is the remaining dwell time in seconds. Dwell time is
	// tracked as a float so that residual-time accounting stays exact
	// across step granularities (a time.Duration would quantize the
	// fractional remainders carried between states).
	restSec float64
	loc     geom.Point
	part    indoor.PartitionID
	cumDist float64
	// odo is the drift odometer (Simulation.Odometer), and rep the route
	// coordinate on traj of the position last reported (Trajectory.at).
	odo, rep float64
	// rng drives this walker's goal choices. Per-walker streams keep a
	// walker's decisions independent of when other walkers replan, so a
	// simulation's outcome does not depend on how ticks interleave the
	// walkers' state transitions (see TestStepGranularityInvariance).
	rng *rand.Rand
}

// Client snapshots the walker as an IFLS client.
func (w *Walker) Client() core.Client {
	return core.Client{ID: w.ID, Loc: w.loc, Part: w.part}
}

// Simulation advances a population of walkers over a venue.
type Simulation struct {
	venue   *indoor.Venue
	graph   *d2d.Graph
	rooms   []indoor.PartitionID
	rng     *rand.Rand
	walkers []*Walker
	elapsed time.Duration
}

// Config parameterizes NewSimulation.
type Config struct {
	// Walkers is the population size.
	Walkers int
	// Speed is walking speed in m/s (default 1.4, a typical pedestrian);
	// it must be positive and finite.
	Speed float64
	// Dwell is the pause at each goal (default 30s of simulated time).
	Dwell time.Duration
	// Seed drives all randomness.
	Seed int64
}

// NewSimulation creates a simulation with walkers placed in random rooms.
func NewSimulation(v *indoor.Venue, g *d2d.Graph, cfg Config) (*Simulation, error) {
	if cfg.Walkers <= 0 {
		return nil, fmt.Errorf("motion: need at least one walker, got %d", cfg.Walkers)
	}
	if cfg.Speed == 0 {
		cfg.Speed = 1.4
	}
	if !(cfg.Speed > 0) || math.IsInf(cfg.Speed, 1) {
		return nil, fmt.Errorf("motion: speed %v is not positive and finite", cfg.Speed)
	}
	if cfg.Dwell == 0 {
		cfg.Dwell = 30 * time.Second
	}
	if cfg.Dwell < 0 {
		return nil, fmt.Errorf("motion: negative dwell %v", cfg.Dwell)
	}
	s := &Simulation{
		venue: v,
		graph: g,
		rooms: v.Rooms(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if len(s.rooms) == 0 {
		return nil, fmt.Errorf("motion: venue %q has no rooms", v.Name)
	}
	for i := 0; i < cfg.Walkers; i++ {
		part := s.rooms[s.rng.Intn(len(s.rooms))]
		w := &Walker{
			ID:    int32(i),
			Speed: cfg.Speed,
			Dwell: cfg.Dwell,
			loc:   v.RandomPointIn(part, s.rng.Float64(), s.rng.Float64()),
			part:  part,
			rng:   rand.New(rand.NewSource(s.rng.Int63())),
		}
		s.plan(w)
		s.walkers = append(s.walkers, w)
	}
	return s, nil
}

// plan assigns w a new random goal room and trajectory, drawn from the
// walker's own random stream.
func (s *Simulation) plan(w *Walker) {
	goalPart := s.rooms[w.rng.Intn(len(s.rooms))]
	goal := s.venue.RandomPointIn(goalPart, w.rng.Float64(), w.rng.Float64())
	w.traj = PlanTrajectory(s.graph, w.loc, w.part, goal, goalPart)
	w.walked = 0
	w.rep = 0
	w.restSec = 0
}

// Step advances the simulation by dt. Each walker runs its full state
// machine inside the tick — rest-expiry, replanning, walking, arrival, and
// the next dwell — with the residual time carried across every transition,
// so a walker's history depends only on total elapsed time, not on how it
// is divided into ticks: Step(1s) sixty times and Step(60s) once agree to
// within float rounding.
func (s *Simulation) Step(dt time.Duration) {
	s.elapsed += dt
	sec := dt.Seconds()
	for _, w := range s.walkers {
		s.advance(w, sec)
	}
}

// advance moves one walker through sec seconds of simulated time. Each loop
// iteration consumes the prefix of sec spent in the walker's current state
// (dwelling or walking) and hands the remainder to the next state;
// NewSimulation guarantees Dwell > 0, so every arrival consumes time and
// the loop terminates.
func (s *Simulation) advance(w *Walker, sec float64) {
	for sec > 0 {
		if w.restSec > 0 {
			if w.restSec > sec {
				w.restSec -= sec
				return
			}
			sec -= w.restSec
			w.restSec = 0
			s.plan(w)
			continue
		}
		if remain := w.traj.Length - w.walked; remain > w.Speed*sec {
			w.walked += w.Speed * sec
			w.cumDist += w.Speed * sec
			w.report()
			return
		}
		// Arrival: walk exactly the remaining leg, then dwell; the
		// overshoot time flows into the dwell (and, when the dwell is
		// shorter still, onward into the next trip).
		remain := w.traj.Length - w.walked
		if remain > 0 {
			sec -= remain / w.Speed
			w.cumDist += remain
		}
		w.walked = w.traj.Length
		w.report()
		w.restSec = w.Dwell.Seconds()
	}
}

// report moves the walker's reported position to where it stands on its
// trajectory and advances the odometer by the route between the old
// reported position and the new one.
func (w *Walker) report() {
	var rep float64
	w.loc, w.part, rep = w.traj.at(w.walked)
	w.odo += rep - w.rep
	w.rep = rep
}

// Venue returns the venue the walkers move in.
func (s *Simulation) Venue() *indoor.Venue { return s.venue }

// Elapsed returns the simulated time so far.
func (s *Simulation) Elapsed() time.Duration { return s.elapsed }

// TotalWalked returns the cumulative distance walked by the whole
// population, in meters. Because Step carries residual time across state
// transitions, the total depends only on elapsed simulated time, not on
// the step granularity (pinned by TestStepGranularityInvariance).
func (s *Simulation) TotalWalked() float64 {
	total := 0.0
	for _, w := range s.walkers {
		total += w.cumDist
	}
	return total
}

// Odometer returns walker i's drift odometer, in meters: the length of
// the route between the positions the walker has reported, which is what
// the snapshots see, with each leg priced as Venue.PointDoorDist prices
// it. It never decreases. Between any two snapshots it grows by at least
// the indoor distance (d2d.Graph.PointToPoint) between the walker's two
// reported positions, each a point of its reported partition, whenever
// the venue prices a walk between two doors of a partition like a leg:
// the straight line on one level, the stair length across levels. Only a
// stairwell with two doors on one level prices them apart by more.
//
// It differs from the distance actually walked (TotalWalked's summands) on
// a stairwell leg: the walker reports the nearer door, so past the leg's
// midpoint its reported position, and the odometer, jump a whole stair
// length ahead of its steps. Over a finished trip the two agree.
func (s *Simulation) Odometer(i int) float64 { return s.walkers[i].odo }

// Snapshot returns the current population as IFLS clients.
func (s *Simulation) Snapshot() []core.Client {
	out := make([]core.Client, len(s.walkers))
	for i, w := range s.walkers {
		out[i] = w.Client()
	}
	return out
}

// Occupancy returns, for each partition, how many walkers are currently in
// it — the object layer of the composite indoor index.
func (s *Simulation) Occupancy() map[indoor.PartitionID]int {
	occ := make(map[indoor.PartitionID]int)
	for _, w := range s.walkers {
		occ[w.part]++
	}
	return occ
}
