package d2d

import (
	"math"
	"sync"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pq"
)

// Unreachable is the distance reported for door pairs with no connecting
// path. Venues built by indoor.Builder are always connected, but the oracle
// stays total for robustness.
var Unreachable = math.Inf(1)

// Graph is the door-to-door graph of a venue, stored in CSR (compressed
// sparse row) form: door d's outgoing edges are nbr[off[d]:off[d+1]] with
// weights wt at the same indexes. The flat layout keeps every Dijkstra
// relaxation on two contiguous arrays instead of a slice-of-slices pointer
// chase. It is immutable after New and safe for concurrent use.
type Graph struct {
	venue *indoor.Venue
	off   []int32
	nbr   []indoor.DoorID
	wt    []float64
}

// New builds the door graph of v. Edge order within a door's row follows the
// partition scan order of the venue, which downstream shortest-path parent
// trees (Path, PointRoute) depend on for deterministic tie-breaks.
func New(v *indoor.Venue) *Graph {
	n := v.NumDoors()
	g := &Graph{venue: v, off: make([]int32, n+1)}
	// Pass 1: count edges per door. Every ordered intra-partition door pair
	// contributes one edge.
	for pi := range v.Partitions {
		doors := v.Partitions[pi].Doors
		for _, d := range doors {
			g.off[d+1] += int32(len(doors) - 1)
		}
	}
	for d := 0; d < n; d++ {
		g.off[d+1] += g.off[d]
	}
	g.nbr = make([]indoor.DoorID, g.off[n])
	g.wt = make([]float64, g.off[n])
	// Pass 2: fill rows in the same scan order, advancing a per-door cursor.
	cur := make([]int32, n)
	copy(cur, g.off[:n])
	for pi := range v.Partitions {
		p := &v.Partitions[pi]
		doors := p.Doors
		for i := 0; i < len(doors); i++ {
			for j := 0; j < len(doors); j++ {
				if i == j {
					continue
				}
				c := cur[doors[i]]
				g.nbr[c] = doors[j]
				g.wt[c] = v.IntraDoorDist(p.ID, doors[i], doors[j])
				cur[doors[i]] = c + 1
			}
		}
	}
	return g
}

// Venue returns the venue the graph was built from.
func (g *Graph) Venue() *indoor.Venue { return g.venue }

// FromDoor returns the shortest indoor distance from src to every door.
func (g *Graph) FromDoor(src indoor.DoorID) []float64 {
	dist, _ := g.dijkstra([]indoor.DoorID{src}, []float64{0}, false, nil)
	return dist
}

// FromDoorWithParents additionally returns, for each door, the predecessor
// door on a shortest path from src (-1 for src itself and unreachable doors).
func (g *Graph) FromDoorWithParents(src indoor.DoorID) ([]float64, []indoor.DoorID) {
	return g.dijkstra([]indoor.DoorID{src}, []float64{0}, true, nil)
}

// FromDoors runs a multi-source Dijkstra: source door i starts with
// distance offsets[i]. This models a point source, whose distance to each
// door of its own partition is the in-partition offset.
func (g *Graph) FromDoors(srcs []indoor.DoorID, offsets []float64) []float64 {
	dist, _ := g.dijkstra(srcs, offsets, false, nil)
	return dist
}

// search is the pooled working state of one Dijkstra run: the queue, and
// a per-door stamp marking the run's unsettled target doors.
type search struct {
	q     pq.Bucket[indoor.DoorID]
	want  []uint32
	stamp uint32
}

// searches recycles search state across runs and goroutines, so a run
// allocates only the arrays it returns.
var searches = sync.Pool{New: func() any { return new(search) }}

// markTargets stamps the distinct doors of targets, over a graph of n
// doors, and returns how many there are.
func (s *search) markTargets(targets []indoor.DoorID, n int) int {
	if len(s.want) < n {
		s.want = make([]uint32, n)
		s.stamp = 0
	}
	s.stamp++
	if s.stamp == 0 { // wrapped: old stamps could collide
		clear(s.want)
		s.stamp = 1
	}
	left := 0
	for _, t := range targets {
		if s.want[t] != s.stamp {
			s.want[t] = s.stamp
			left++
		}
	}
	return left
}

// dijkstra runs the search from srcs (source i at distance offsets[i]).
// With targets nil it settles every reachable door. Otherwise it stops
// once every target door has been popped: a popped door's distance, and
// its parent chain of earlier-popped doors, are final — later pops are no
// nearer, and a label only changes on a strictly smaller distance — so
// every target's distance and chain equal the complete search's. Other
// doors are left tentative.
func (g *Graph) dijkstra(srcs []indoor.DoorID, offsets []float64, wantParents bool, targets []indoor.DoorID) ([]float64, []indoor.DoorID) {
	n := g.venue.NumDoors()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	var parent []indoor.DoorID
	if wantParents {
		parent = make([]indoor.DoorID, n)
		for i := range parent {
			parent[i] = -1
		}
	}
	s := searches.Get().(*search)
	defer func() {
		s.q.Reset()
		searches.Put(s)
	}()
	left := -1 // no targets: run to completion
	if targets != nil {
		left = s.markTargets(targets, n)
	}
	// Dijkstra pops in nondecreasing distance order, so the monotone bucket
	// queue applies; its fallback heap never engages here.
	q := &s.q
	for i, src := range srcs {
		if offsets[i] < dist[src] {
			dist[src] = offsets[i]
			q.Push(src, offsets[i])
		}
	}
	for !q.Empty() {
		d, dd := q.Pop()
		if dd > dist[d] {
			continue // stale entry
		}
		if left > 0 && s.want[d] == s.stamp {
			s.want[d] = 0
			if left--; left == 0 {
				break
			}
		}
		for c := g.off[d]; c < g.off[d+1]; c++ {
			to := g.nbr[c]
			nd := dd + g.wt[c]
			if nd < dist[to] {
				dist[to] = nd
				if wantParents {
					parent[to] = d
				}
				q.Push(to, nd)
			}
		}
	}
	return dist, parent
}

// DoorToDoor returns the shortest indoor distance between two doors.
func (g *Graph) DoorToDoor(a, b indoor.DoorID) float64 {
	if a == b {
		return 0
	}
	dist, _ := g.dijkstra([]indoor.DoorID{a}, []float64{0}, false, []indoor.DoorID{b})
	return dist[b]
}

// Path returns the door sequence of a shortest path from a to b, inclusive
// of both endpoints, or nil if unreachable.
func (g *Graph) Path(a, b indoor.DoorID) []indoor.DoorID {
	if a == b {
		return []indoor.DoorID{a}
	}
	dist, parent := g.dijkstra([]indoor.DoorID{a}, []float64{0}, true, []indoor.DoorID{b})
	if math.IsInf(dist[b], 1) {
		return nil
	}
	var rev []indoor.DoorID
	for d := b; d != -1; d = parent[d] {
		rev = append(rev, d)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PointRoute returns a shortest indoor route from point p in partition pp
// to point q in partition qp: the door sequence crossed (empty when both
// points share a partition) and the total distance. Each source door's
// search stops once every door of qp is settled, which leaves their
// distances and parent chains exactly those of a complete search.
func (g *Graph) PointRoute(p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) ([]indoor.DoorID, float64) {
	v := g.venue
	if pp == qp {
		return nil, v.IntraPointDist(pp, p, q)
	}
	bestDist := Unreachable
	var bestPath []indoor.DoorID
	targets := v.Partition(qp).Doors
	for _, sd := range v.Partition(pp).Doors {
		off := v.PointDoorDist(pp, p, sd)
		dist, parent := g.dijkstra([]indoor.DoorID{sd}, []float64{0}, true, targets)
		for _, td := range targets {
			total := off + dist[td] + v.PointDoorDist(qp, q, td)
			if total >= bestDist {
				continue
			}
			var rev []indoor.DoorID
			for d := td; d != -1; d = parent[d] {
				rev = append(rev, d)
			}
			if len(rev) == 0 || rev[len(rev)-1] != sd {
				continue // unreachable through this source door
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			bestDist, bestPath = total, rev
		}
	}
	return bestPath, bestDist
}

// PointToPoint returns the exact indoor distance between point p located in
// partition pp and point q located in partition qp. This is the ground
// truth every index is tested against.
func (g *Graph) PointToPoint(p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) float64 {
	v := g.venue
	if pp == qp {
		return v.IntraPointDist(pp, p, q)
	}
	srcDoors := v.Partition(pp).Doors
	offsets := make([]float64, len(srcDoors))
	for i, d := range srcDoors {
		offsets[i] = v.PointDoorDist(pp, p, d)
	}
	dist := g.FromDoors(srcDoors, offsets)
	best := Unreachable
	for _, d := range v.Partition(qp).Doors {
		if t := dist[d] + v.PointDoorDist(qp, q, d); t < best {
			best = t
		}
	}
	return best
}

// PointToPartition returns the exact indoor distance from point p in
// partition pp to partition target: the shortest distance to any point of
// the target, which is reached at one of its doors (distance from a
// partition to its own doors is zero, per the paper's iMinD convention).
func (g *Graph) PointToPartition(p geom.Point, pp indoor.PartitionID, target indoor.PartitionID) float64 {
	if pp == target {
		return 0
	}
	v := g.venue
	srcDoors := v.Partition(pp).Doors
	offsets := make([]float64, len(srcDoors))
	for i, d := range srcDoors {
		offsets[i] = v.PointDoorDist(pp, p, d)
	}
	dist := g.FromDoors(srcDoors, offsets)
	best := Unreachable
	for _, d := range v.Partition(target).Doors {
		if dist[d] < best {
			best = dist[d]
		}
	}
	return best
}

// PartitionToPartition returns the shortest indoor distance between two
// partitions (zero if they share a door or are the same).
func (g *Graph) PartitionToPartition(a, b indoor.PartitionID) float64 {
	if a == b {
		return 0
	}
	v := g.venue
	srcDoors := v.Partition(a).Doors
	offsets := make([]float64, len(srcDoors)) // all zero: partition to own door costs 0
	dist := g.FromDoors(srcDoors, offsets)
	best := Unreachable
	for _, d := range v.Partition(b).Doors {
		if dist[d] < best {
			best = dist[d]
		}
	}
	return best
}

// AllPairs computes the full door-to-door distance matrix. Intended for
// small venues (tests); construction-time callers use per-door FromDoor to
// bound memory.
func (g *Graph) AllPairs() [][]float64 {
	n := g.venue.NumDoors()
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = g.FromDoor(indoor.DoorID(i))
	}
	return m
}

// Degree returns the number of outgoing edges of door d (diagnostics).
func (g *Graph) Degree(d indoor.DoorID) int { return int(g.off[d+1] - g.off[d]) }
