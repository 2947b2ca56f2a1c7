// Package workload generates the client populations and facility selections
// of the paper's experiments (Section 6.1): clients drawn from uniform or
// normal spatial distributions, existing facilities and candidate locations
// selected uniformly at random (synthetic setting) or by shop category
// (real setting, Melbourne Central).
package workload

import (
	"fmt"
	"math/rand"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// Distribution selects the spatial distribution of generated clients.
type Distribution int

const (
	// Uniform places clients uniformly across the venue's rooms.
	Uniform Distribution = iota
	// Normal places clients with a 2D normal distribution centered on the
	// venue; sigma is expressed as a fraction of the venue's half-extent,
	// matching the paper's sigma in {0.125, 0.25, 0.5, 1, 2}.
	Normal
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Generator produces clients and facility selections for one venue.
// Construct with NewGenerator; one Generator serves any number of draws.
type Generator struct {
	venue *indoor.Venue
	rooms []indoor.PartitionID // ascending ID order, as Venue.Rooms returns them
	bb    geom.Rect
}

// NewGenerator builds a Generator for v.
func NewGenerator(v *indoor.Venue) *Generator {
	return &Generator{
		venue: v,
		rooms: v.Rooms(),
		bb:    v.BoundingBox(),
	}
}

// Clients draws n clients from the distribution. Clients are placed inside
// rooms; for the normal distribution, positions are sampled around the
// venue center and snapped to the room they fall in, resampling when a draw
// lands outside every room. An unknown distribution yields an error wrapping
// faults.ErrInvalidWorkload.
func (g *Generator) Clients(n int, dist Distribution, sigma float64, rng *rand.Rand) ([]core.Client, error) {
	if dist != Uniform && dist != Normal {
		return nil, fmt.Errorf("%w: unknown distribution %d", faults.ErrInvalidWorkload, dist)
	}
	out := make([]core.Client, 0, n)
	for i := 0; i < n; i++ {
		var c core.Client
		switch dist {
		case Uniform:
			p := g.rooms[rng.Intn(len(g.rooms))]
			c = core.Client{ID: int32(i), Part: p, Loc: g.venue.RandomPointIn(p, rng.Float64(), rng.Float64())}
		case Normal:
			c = g.normalClient(int32(i), sigma, rng)
		}
		out = append(out, c)
	}
	return out, nil
}

// normalClient samples a client position from a normal distribution
// centered on the venue (uniform over levels) until it lands in a room;
// after a bounded number of misses it falls back to the room nearest the
// sampled point on that level.
func (g *Generator) normalClient(id int32, sigma float64, rng *rand.Rand) core.Client {
	cx := (g.bb.Min.X + g.bb.Max.X) / 2
	cy := (g.bb.Min.Y + g.bb.Max.Y) / 2
	sx := sigma * g.bb.Width() / 2
	sy := sigma * g.bb.Height() / 2
	for attempt := 0; attempt < 64; attempt++ {
		lv := rng.Intn(g.venue.Levels)
		pt := geom.Pt(cx+rng.NormFloat64()*sx, cy+rng.NormFloat64()*sy, lv)
		if room := g.roomAt(pt); room != indoor.NoPartition {
			// Keep the point clear of the exact boundary.
			r := g.venue.Partition(room).Rect
			u := (pt.X - r.Min.X) / r.Width()
			w := (pt.Y - r.Min.Y) / r.Height()
			return core.Client{ID: id, Part: room, Loc: g.venue.RandomPointIn(room, u, w)}
		}
	}
	// Dense centers with tiny sigma may keep missing rooms (e.g. the draw
	// lands in a corridor); snap to the room whose center is nearest the
	// venue center on a random level.
	lv := rng.Intn(g.venue.Levels)
	best, bestD := g.rooms[0], -1.0
	for _, room := range g.rooms {
		r := g.venue.Partition(room).Rect
		if r.Level() != lv {
			continue
		}
		d := r.Center().DistSq(geom.Pt(cx, cy, lv))
		if bestD < 0 || d < bestD {
			best, bestD = room, d
		}
	}
	return core.Client{ID: id, Part: best, Loc: g.venue.RandomPointIn(best, rng.Float64(), rng.Float64())}
}

// roomAt returns the lowest-ID Room partition containing pt, boundary
// inclusive, or NoPartition when pt lies outside every room.
func (g *Generator) roomAt(pt geom.Point) indoor.PartitionID {
	for _, room := range g.rooms {
		if g.venue.Partition(room).Rect.Contains(pt) {
			return room
		}
	}
	return indoor.NoPartition
}

// Facilities selects nExist existing facilities and nCand candidate
// locations uniformly at random from the rooms, disjointly (synthetic
// setting). Requesting more facilities than the venue has rooms, or a
// negative count, yields an error wrapping faults.ErrInvalidWorkload.
func (g *Generator) Facilities(nExist, nCand int, rng *rand.Rand) (fe, fn []indoor.PartitionID, err error) {
	if nExist < 0 || nCand < 0 {
		return nil, nil, fmt.Errorf("%w: negative facility counts %d/%d", faults.ErrInvalidWorkload, nExist, nCand)
	}
	if nExist+nCand > len(g.rooms) {
		return nil, nil, fmt.Errorf("%w: venue %q has %d rooms, need %d",
			faults.ErrInvalidWorkload, g.venue.Name, len(g.rooms), nExist+nCand)
	}
	perm := rng.Perm(len(g.rooms))
	fe = make([]indoor.PartitionID, nExist)
	for i := 0; i < nExist; i++ {
		fe[i] = g.rooms[perm[i]]
	}
	fn = make([]indoor.PartitionID, nCand)
	for i := 0; i < nCand; i++ {
		fn[i] = g.rooms[perm[nExist+i]]
	}
	return fe, fn, nil
}

// RealSetting selects facilities the way the paper's real setting does: the
// rooms of the given category are the existing facilities and every other
// room is a candidate location.
func (g *Generator) RealSetting(category string) (fe, fn []indoor.PartitionID, err error) {
	fe = g.venue.RoomsByCategory(category)
	if len(fe) == 0 {
		return nil, nil, fmt.Errorf("workload: venue %q has no rooms in category %q", g.venue.Name, category)
	}
	for _, r := range g.rooms {
		if g.venue.Partition(r).Category != category {
			fn = append(fn, r)
		}
	}
	return fe, fn, nil
}

// Query assembles a complete IFLS query: facilities (synthetic setting) and
// clients in one call. Impossible requests yield an error wrapping
// faults.ErrInvalidWorkload; see Facilities and Clients.
func (g *Generator) Query(nExist, nCand, nClients int, dist Distribution, sigma float64, rng *rand.Rand) (*core.Query, error) {
	fe, fn, err := g.Facilities(nExist, nCand, rng)
	if err != nil {
		return nil, err
	}
	clients, err := g.Clients(nClients, dist, sigma, rng)
	if err != nil {
		return nil, err
	}
	return &core.Query{
		Existing:   fe,
		Candidates: fn,
		Clients:    clients,
	}, nil
}
