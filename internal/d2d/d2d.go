package d2d

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pq"
)

// Unreachable is the distance reported for door pairs with no connecting
// path. Venues built by indoor.Builder are always connected, but a masked
// graph (Masked) may not be, and the oracle stays total for robustness.
var Unreachable = math.Inf(1)

// Graph is the door-to-door graph of a venue, stored in CSR (compressed
// sparse row) form: door d's outgoing edges are nbr[off[d]:off[d+1]] with
// weights wt at the same indexes. The flat layout keeps every Dijkstra
// relaxation on two contiguous arrays instead of a slice-of-slices pointer
// chase. The CSR arrays are immutable after New (or Masked, which derives
// a graph with closed doors cut out). Beside them sits a publish-once
// table of complete shortest-path trees, one slot per source door, that
// route queries (PointRoute, Path, DoorToDoor) fill on first use. Both
// are safe for concurrent use.
type Graph struct {
	venue *indoor.Venue
	off   []int32
	nbr   []indoor.DoorID
	wt    []float64
	// open, on a masked graph, marks the doors a search may start from;
	// nil on a graph from New, where every door is open.
	open []bool
	// trees[d] is the complete shortest-path tree from door d, published
	// once by the first route that needs it and never written again.
	trees []atomic.Pointer[spTree]
}

// spTree is a complete single-source shortest-path tree: every door's
// distance from the source and its predecessor on a shortest path (-1 for
// the source and unreachable doors).
type spTree struct {
	dist   []float64
	parent []indoor.DoorID
}

// New builds the door graph of v. Edge order within a door's row follows the
// partition scan order of the venue, which downstream shortest-path parent
// trees (Path, PointRoute) depend on for deterministic tie-breaks.
func New(v *indoor.Venue) *Graph {
	n := v.NumDoors()
	g := &Graph{venue: v, off: make([]int32, n+1), trees: make([]atomic.Pointer[spTree], n)}
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

// Masked returns g with only the doors open marks as passable: it copies
// g's CSR, keeping edge order, and drops every edge that touches a closed
// door, and a search never starts from a closed door. A search therefore
// reaches no closed door and crosses none, so every distance between two
// doors that needs a closed one is Unreachable (a door's distance to
// itself stays 0), and the masked graph searches exactly like New over
// the venue with the closed doors removed. open holds one flag per door
// of g's venue. The masked graph has its own, empty route-tree table.
func (g *Graph) Masked(open []bool) *Graph {
	n := len(g.off) - 1
	m := &Graph{venue: g.venue, off: make([]int32, n+1), open: slices.Clone(open), trees: make([]atomic.Pointer[spTree], n)}
	m.nbr = make([]indoor.DoorID, 0, len(g.nbr))
	m.wt = make([]float64, 0, len(g.wt))
	for d := 0; d < n; d++ {
		if open[d] {
			for c := g.off[d]; c < g.off[d+1]; c++ {
				if open[g.nbr[c]] {
					m.nbr = append(m.nbr, g.nbr[c])
					m.wt = append(m.wt, g.wt[c])
				}
			}
		}
		m.off[d+1] = int32(len(m.nbr))
	}
	return m
}

// Venue returns the venue the graph was built from.
func (g *Graph) Venue() *indoor.Venue { return g.venue }

// FromDoor returns the shortest indoor distance from src to every door.
func (g *Graph) FromDoor(src indoor.DoorID) []float64 {
	dist, _ := g.dijkstra([]indoor.DoorID{src}, []float64{0}, false)
	return dist
}

// FromDoorWithParents additionally returns, for each door, the predecessor
// door on a shortest path from src (-1 for src itself and unreachable doors).
func (g *Graph) FromDoorWithParents(src indoor.DoorID) ([]float64, []indoor.DoorID) {
	return g.dijkstra([]indoor.DoorID{src}, []float64{0}, true)
}

// FromDoors runs a multi-source Dijkstra: source door i starts with
// distance offsets[i]. This models a point source, whose distance to each
// door of its own partition is the in-partition offset.
func (g *Graph) FromDoors(srcs []indoor.DoorID, offsets []float64) []float64 {
	dist, _ := g.dijkstra(srcs, offsets, false)
	return dist
}

// searches recycles Dijkstra queues across runs and goroutines, so a run
// allocates only the arrays it returns.
var searches = sync.Pool{New: func() any { return new(pq.Bucket[indoor.DoorID]) }}

// dijkstra runs the complete search from srcs (source i at distance
// offsets[i]) and settles every reachable door.
func (g *Graph) dijkstra(srcs []indoor.DoorID, offsets []float64, wantParents bool) ([]float64, []indoor.DoorID) {
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
	// Dijkstra pops in nondecreasing distance order, so the monotone bucket
	// queue applies; its fallback heap never engages here.
	q := searches.Get().(*pq.Bucket[indoor.DoorID])
	defer func() {
		q.Reset()
		searches.Put(q)
	}()
	for i, src := range srcs {
		if offsets[i] < dist[src] && (g.open == nil || g.open[src]) {
			dist[src] = offsets[i]
			q.Push(src, offsets[i])
		}
	}
	for !q.Empty() {
		d, dd := q.Pop()
		if dd > dist[d] {
			continue // stale entry
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

// tree returns the complete shortest-path tree from src. The first call
// for a source runs the search and publishes it; every later call, from
// any goroutine, reads the published tree. Goroutines racing on a first
// use each search, and all of them return the one tree that won.
func (g *Graph) tree(src indoor.DoorID) *spTree {
	slot := &g.trees[src]
	if t := slot.Load(); t != nil {
		return t
	}
	dist, parent := g.dijkstra([]indoor.DoorID{src}, []float64{0}, true)
	if t := (&spTree{dist: dist, parent: parent}); slot.CompareAndSwap(nil, t) {
		return t
	}
	return slot.Load()
}

// path returns the door sequence of t's shortest path from its source to
// d, source first.
func (t *spTree) path(d indoor.DoorID) []indoor.DoorID {
	var rev []indoor.DoorID
	for ; d != -1; d = t.parent[d] {
		rev = append(rev, d)
	}
	slices.Reverse(rev)
	return rev
}

// DoorToDoor returns the shortest indoor distance between two doors.
func (g *Graph) DoorToDoor(a, b indoor.DoorID) float64 {
	if a == b {
		return 0
	}
	return g.tree(a).dist[b]
}

// Path returns the door sequence of a shortest path from a to b, inclusive
// of both endpoints, or nil if unreachable.
func (g *Graph) Path(a, b indoor.DoorID) []indoor.DoorID {
	if a == b {
		return []indoor.DoorID{a}
	}
	t := g.tree(a)
	if math.IsInf(t.dist[b], 1) {
		return nil
	}
	return t.path(b)
}

// PointRoute returns a shortest indoor route from point p in partition pp
// to point q in partition qp: the door sequence crossed (empty when both
// points share a partition) and the total distance. It scores every
// (source door, target door) pair on the source doors' shortest-path
// trees, and the first strict improvement wins.
func (g *Graph) PointRoute(p geom.Point, pp indoor.PartitionID, q geom.Point, qp indoor.PartitionID) ([]indoor.DoorID, float64) {
	v := g.venue
	if pp == qp {
		return nil, v.IntraPointDist(pp, p, q)
	}
	bestDist := Unreachable
	var bestPath []indoor.DoorID
	for _, sd := range v.Partition(pp).Doors {
		off := v.PointDoorDist(pp, p, sd)
		t := g.tree(sd)
		for _, td := range v.Partition(qp).Doors {
			total := off + t.dist[td] + v.PointDoorDist(qp, q, td)
			if total >= bestDist {
				continue // also skips doors unreachable from sd: total is +Inf
			}
			bestDist, bestPath = total, t.path(td)
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
	dist := g.fromPoint(p, pp)
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
	return minAt(g.fromPoint(p, pp), g.venue.Partition(target).Doors)
}

// PartitionToPartition returns the shortest indoor distance between two
// partitions (zero if they share a door or are the same).
func (g *Graph) PartitionToPartition(a, b indoor.PartitionID) float64 {
	if a == b {
		return 0
	}
	srcDoors := g.venue.Partition(a).Doors
	// All offsets zero: a partition reaches its own doors at no cost.
	return minAt(g.FromDoors(srcDoors, make([]float64, len(srcDoors))), g.venue.Partition(b).Doors)
}

// fromPoint returns the shortest distance from point p in partition pp to
// every door: a search seeded at each of pp's doors with its in-partition
// offset from p.
func (g *Graph) fromPoint(p geom.Point, pp indoor.PartitionID) []float64 {
	srcDoors := g.venue.Partition(pp).Doors
	offsets := make([]float64, len(srcDoors))
	for i, d := range srcDoors {
		offsets[i] = g.venue.PointDoorDist(pp, p, d)
	}
	return g.FromDoors(srcDoors, offsets)
}

// minAt returns the least of dist over doors.
func minAt(dist []float64, doors []indoor.DoorID) float64 {
	best := Unreachable
	for _, d := range doors {
		best = min(best, dist[d])
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
