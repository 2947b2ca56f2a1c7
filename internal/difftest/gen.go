package difftest

import (
	"fmt"
	"math/rand"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// GenVenue builds an adversarial random venue from a seed. Compared to
// testvenue.Random it is deliberately tie-heavy and edge-heavy:
//
//   - all coordinates are multiples of 0.5 (exact in binary floating point),
//     so mirrored rooms produce bit-equal distances and exercise tie-breaking;
//   - with probability 1/2 each side's room widths form a palindrome, making
//     the level symmetric about the corridor center;
//   - with probability 1/2 every level reuses one layout, stacking rooms with
//     identical footprints on top of each other (the point-location stress case);
//   - degenerate slivers (rooms 0.5 m wide) appear with probability ~1/3;
//   - adjacent rooms share walls and sometimes a direct shared-wall door;
//   - consecutive levels are joined by an east stair and, with probability
//     1/2, a second west stair, so cross-level routes are ambiguous.
//
// Every venue is valid by construction (Builder-checked).
func GenVenue(seed int64) *indoor.Venue {
	rng := rand.New(rand.NewSource(seed))
	levels := 1 + rng.Intn(4)
	cells := 3 + rng.Intn(5) // corridor length in 4 m cells
	const cellW, corrW, depth, corrY = 4.0, 4.0, 6.0, 10.0
	corrLen := float64(cells) * cellW
	mirror := rng.Intn(2) == 0
	stacked := rng.Intn(2) == 0
	westStair := rng.Intn(2) == 0
	stairLen := float64(8 + rng.Intn(5))

	// widths carves the corridor length into room widths (in meters, all
	// multiples of 0.5). A sliver splits one stretch into 0.5 + rest. With
	// mirror set, the sequence is a palindrome: a prefix up to the corridor
	// midpoint, an optional middle filler, then the prefix reversed — so the
	// side is exactly symmetric about the corridor center.
	widths := func(rng *rand.Rand) []float64 {
		if mirror {
			var half []float64
			total := 0.0
			for {
				w := float64(1+rng.Intn(3)) * cellW
				if total+w > corrLen/2 {
					break
				}
				if rng.Intn(3) == 0 {
					half = append(half, 0.5, w-0.5)
				} else {
					half = append(half, w)
				}
				total += w
			}
			ws := append([]float64(nil), half...)
			if mid := corrLen - 2*total; mid > 0 {
				ws = append(ws, mid)
			}
			for i := len(half) - 1; i >= 0; i-- {
				ws = append(ws, half[i])
			}
			return ws
		}
		var ws []float64
		left := corrLen
		for left > 0 {
			w := float64(1+rng.Intn(3)) * cellW
			if w > left {
				w = left
			}
			left -= w
			if rng.Intn(3) == 0 && w > 1 {
				ws = append(ws, 0.5, w-0.5)
			} else {
				ws = append(ws, w)
			}
		}
		return ws
	}

	type layout struct{ south, north []float64 }
	layouts := make([]layout, levels)
	base := layout{south: widths(rng), north: widths(rng)}
	for lv := range layouts {
		if stacked || lv == 0 {
			layouts[lv] = base
		} else {
			layouts[lv] = layout{south: widths(rng), north: widths(rng)}
		}
	}

	b := indoor.NewBuilder(fmt.Sprintf("diff-%d", seed))
	corridors := make([]indoor.PartitionID, levels)
	for lv := 0; lv < levels; lv++ {
		c := b.AddCorridor(geom.R(0, corrY, corrLen, corrY+corrW, lv), fmt.Sprintf("corr-L%d", lv))
		corridors[lv] = c
		for side, ws := range [][]float64{layouts[lv].south, layouts[lv].north} {
			x := 0.0
			var prev indoor.PartitionID = indoor.NoPartition
			for i, w := range ws {
				var r indoor.PartitionID
				var doorY, wallY float64
				if side == 0 {
					r = b.AddRoom(geom.R(x, corrY-depth, x+w, corrY, lv), fmt.Sprintf("S%d-L%d", i, lv), "")
					doorY, wallY = corrY, corrY-depth/2
				} else {
					r = b.AddRoom(geom.R(x, corrY+corrW, x+w, corrY+corrW+depth, lv), fmt.Sprintf("N%d-L%d", i, lv), "")
					doorY, wallY = corrY+corrW, corrY+corrW+depth/2
				}
				// Corridor door at the room's wall center, quantized to 0.25
				// steps (exact in binary).
				b.AddDoor(geom.Pt(x+w/2, doorY, lv), r, c)
				if prev != indoor.NoPartition && rng.Intn(5) < 2 {
					// Shared-wall door straight between adjacent rooms.
					b.AddDoor(geom.Pt(x, wallY, lv), prev, r)
				}
				prev = r
				x += w
			}
		}
	}
	for lv := 0; lv+1 < levels; lv++ {
		st := b.AddStair(geom.R(corrLen, corrY, corrLen+corrW, corrY+corrW, lv), fmt.Sprintf("stairE-L%d", lv), stairLen)
		b.AddDoor(geom.Pt(corrLen, corrY+corrW/2, lv), corridors[lv], st)
		b.AddDoor(geom.Pt(corrLen, corrY+corrW/2, lv+1), corridors[lv+1], st)
		if westStair {
			sw := b.AddStair(geom.R(-corrW, corrY, 0, corrY+corrW, lv), fmt.Sprintf("stairW-L%d", lv), stairLen)
			b.AddDoor(geom.Pt(0, corrY+corrW/2, lv), corridors[lv], sw)
			b.AddDoor(geom.Pt(0, corrY+corrW/2, lv+1), corridors[lv+1], sw)
		}
	}
	return b.MustBuild()
}

// GenQuery draws a random workload over v: disjoint existing and candidate
// facility rooms, and clients at tie-prone points — partition centers, door
// locations, and quarter-grid positions — across rooms and corridors.
// Existing may be empty (the all-clients-unserved case); Candidates never is.
func GenQuery(v *indoor.Venue, seed int64) *core.Query {
	rng := rand.New(rand.NewSource(seed))
	rooms := append([]indoor.PartitionID(nil), v.Rooms()...)
	rng.Shuffle(len(rooms), func(i, j int) { rooms[i], rooms[j] = rooms[j], rooms[i] })

	ne := rng.Intn(3)
	if ne >= len(rooms) {
		ne = len(rooms) - 1
	}
	nc := 1 + rng.Intn(5)
	if ne+nc > len(rooms) {
		nc = len(rooms) - ne
	}
	q := &core.Query{
		Existing:   append([]indoor.PartitionID(nil), rooms[:ne]...),
		Candidates: append([]indoor.PartitionID(nil), rooms[ne:ne+nc]...),
	}

	// Client hosts: any room or corridor.
	var hosts []indoor.PartitionID
	for i := range v.Partitions {
		if v.Partitions[i].Kind != indoor.Stair {
			hosts = append(hosts, v.Partitions[i].ID)
		}
	}
	steps := []float64{0, 0.25, 0.5, 0.75, 1}
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		p := hosts[rng.Intn(len(hosts))]
		part := v.Partition(p)
		var loc geom.Point
		switch rng.Intn(4) {
		case 0:
			// Exact partition center: bit-equal distances under symmetry.
			loc = geom.Pt((part.Rect.Min.X+part.Rect.Max.X)/2, (part.Rect.Min.Y+part.Rect.Max.Y)/2, part.Level())
		case 1:
			// Exactly on a door of the partition (a boundary point shared
			// with the neighbor across the wall).
			d := v.Door(part.Doors[rng.Intn(len(part.Doors))])
			if d.Loc.Level == part.Level() {
				loc = d.Loc
				break
			}
			fallthrough
		default:
			loc = v.RandomPointIn(p, steps[rng.Intn(len(steps))], steps[rng.Intn(len(steps))])
		}
		q.Clients = append(q.Clients, core.Client{ID: int32(i), Loc: loc, Part: p})
	}
	return q
}

// GenCase draws a full differential case: venue, workload, objective, and K.
// The objective cycles with the seed so a seed sweep covers all six; K is
// occasionally forced past the candidate count to hit the k > |Fn| edge.
func GenCase(seed int64) Case {
	rng := rand.New(rand.NewSource(seed ^ 0x5bf0a8b9))
	v := GenVenue(seed)
	q := GenQuery(v, seed+1)
	obj := core.Objective(seed % 6)
	k := 1 + rng.Intn(3)
	if rng.Intn(4) == 0 {
		k = len(q.Candidates) + rng.Intn(3) // k >= |Fn| edge
	}
	return Case{Venue: v, Query: q, Obj: obj, K: k}
}
