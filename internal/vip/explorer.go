package vip

import (
	"math"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// Explorer computes indoor distance vectors from a fixed source partition to
// tree nodes and partitions, lazily and with memoization. It is the shared
// machinery behind every distance computation in this package:
//
//   - rows correspond to the source partition's doors, so a single Explorer
//     serves every client located in that partition (the client-grouping
//     optimization of the IFLS paper — per-client values differ only in the
//     in-partition offsets to the shared doors);
//   - the vector for a node on the source's leaf-to-root path comes straight
//     from the leaf's ancestor matrices in a vivid tree (one lookup), or by
//     climbing the internal matrices in a plain IP-tree;
//   - vectors for any other node are derived from its parent's vector
//     through the parent's access-door matrix.
//
// All derived values are exact global indoor distances, because the stored
// matrices are exact and any path into a node must cross one of its access
// doors.
//
// A node's bound (MinToNode, PointToNode) does not imply its vector.
// For a node off the source path the bound is read from its parent's rows
// of the tree's bound table (the per-child minima of the parent's union
// rows), in |base| additions, and equals the minimum over the full vector
// bit for bit. The vector itself is built only when the node is expanded
// or its doors are needed, so nodes that are pushed but never expanded
// cost no vector.
//
// Every distance to a partition goes through one kernel, PointToPartition:
// the least offset-plus-cell sum over the source doors and the target's
// door columns of DoorVec. Nil offsets stand for a zero offset at every
// door, the partition-to-partition distance, and DoorToPartition reads one
// door's row alone, the signature row of the continuous engine. Both are
// the kernel's value bit for bit. Rounded addition is monotone, so for
// each row min over d of fl(o + x_d) is fl(o + min over d of x_d): with
// o = 0 that is the row's least cell exactly, and a row with o = +Inf
// sums to +Inf everywhere and never sets the minimum.
//
// Recycling: Reset re-roots an Explorer at another source partition on the
// same tree and keeps its storage. A fresh Explorer allocates every vector
// on its own; once reset, it carves its vectors from one block of cells
// and one block of row headers, sized from the last source's need, and
// continues in a block of twice the size when a source needs more. A
// reset Explorer returns the same vectors, bit for bit, and reports the
// same RetainedBytes as a fresh one rooted at the same source. Every
// vector returned before a Reset is invalid after it: its storage is
// handed to the next source's vectors.
//
// Concurrency: an Explorer is a single-goroutine value. Every method —
// including the read-looking getters — may touch the memo slices, so no
// Explorer method is safe to call concurrently with any other on the same
// Explorer. Many Explorers may run in parallel over one shared *Tree;
// that is exactly how internal/batch parallelizes query batches (one
// solver state, and hence one set of Explorers, per worker goroutine).
type Explorer struct {
	t        *Tree
	src      indoor.PartitionID
	srcLeaf  NodeID
	srcDoors []indoor.DoorID

	// Memo vectors indexed by dense NodeID; nil marks "not yet computed".
	// Every computed vector is non-nil (alloc returns a non-nil slice even
	// for zero rows), so the nil check is an exact presence test.
	adVec   [][][]float64 // rows × AccessDoors(node)
	doorVec [][][]float64 // leaves: rows × doors(leaf)
	nVec    int           // number of memoized vectors across both slices
	nCells  int           // cells of those vectors, summed as they are memoized

	// path[n] reports whether node n lies on the source leaf's root path,
	// precomputed so the hot-path membership test is one array load instead
	// of a parent-chain walk.
	path []bool

	// rowBuf receives the copy of a matrix row that straddles two pages
	// of a paged tree (see Tree.row); it is reused across calls.
	rowBuf []float64

	// Storage of a reset Explorer (recycled set by the first Reset): the
	// vectors are carved from cells and rows, whose lengths are the parts
	// in use, and touched lists the nodes memoized since the last Reset,
	// so the next one clears only those.
	recycled bool
	cells    []float64
	rows     [][]float64
	touched  []NodeID
}

// Retention of a reset Explorer's storage follows the trim rule of core's
// Scratch: a block is reallocated at the last source's need when it is
// smaller than that need, or both above minRetain elements and more than
// trimFactor times the need.
const (
	minRetain  = 1024
	trimFactor = 4
)

// NewExplorer returns an Explorer rooted at source partition src. Safe to
// call concurrently on a shared tree; the returned Explorer itself is for
// a single goroutine.
func (t *Tree) NewExplorer(src indoor.PartitionID) *Explorer {
	e := &Explorer{
		t:        t,
		src:      src,
		srcLeaf:  t.leafOf[src],
		srcDoors: t.venue.Partition(src).Doors,
		adVec:    make([][][]float64, len(t.nodes)),
		doorVec:  make([][][]float64, len(t.nodes)),
		path:     make([]bool, len(t.nodes)),
	}
	for c := e.srcLeaf; c != NoNode; c = t.nodes[c].parent {
		e.path[c] = true
	}
	return e
}

// Reset re-roots the explorer at source partition src on the same tree,
// keeping its storage for the new source's vectors (see Recycling in the
// type's comment). It clears the memo entries of the nodes the last source
// memoized and the old and new sources' root paths, so its cost follows
// the last source's work, not the tree's size.
func (e *Explorer) Reset(src indoor.PartitionID) {
	t := e.t
	if e.recycled {
		for _, n := range e.touched {
			e.adVec[n] = nil
			e.doorVec[n] = nil
		}
	} else {
		// A fresh explorer keeps no touched list; clear it whole once.
		clear(e.adVec)
		clear(e.doorVec)
		e.recycled = true
	}
	for c := e.srcLeaf; c != NoNode; c = t.nodes[c].parent {
		e.path[c] = false
	}
	e.touched = recycle(e.touched, e.nVec)
	e.cells = recycle(e.cells, e.nCells)
	e.rows = recycle(e.rows, e.nVec*len(e.srcDoors))
	e.nVec, e.nCells = 0, 0

	e.src = src
	e.srcLeaf = t.leafOf[src]
	e.srcDoors = t.venue.Partition(src).Doors
	for c := e.srcLeaf; c != NoNode; c = t.nodes[c].parent {
		e.path[c] = true
	}
}

// recycle returns s emptied, with capacity for need elements: s itself
// unless it is too small or oversized under the trim rule.
func recycle[T any](s []T, need int) []T {
	if cap(s) < need || (cap(s) > minRetain && cap(s) > trimFactor*need) {
		return make([]T, 0, need)
	}
	return s[:0]
}

// Source returns the source partition.
func (e *Explorer) Source() indoor.PartitionID { return e.src }

// RetainedBytes estimates the memory held by the explorer's memoized
// distance vectors — the quantity the paper's memory-cost metric tracks for
// the efficient approach.
func (e *Explorer) RetainedBytes() int {
	const vecOverhead = 24 // slice header per memoized vector
	return e.nCells*8 + e.nVec*vecOverhead
}

// memo records v as node n's memoized vector: it counts the vector and
// its cells toward RetainedBytes, and a reset explorer lists n for the
// next Reset to clear.
func (e *Explorer) memo(n NodeID, v [][]float64) [][]float64 {
	e.nVec++
	for _, row := range v {
		e.nCells += len(row)
	}
	if e.recycled {
		e.touched = append(e.touched, n)
	}
	return v
}

// SrcDoors returns the source partition's doors; the rows of every
// vector, and the offsets PointOffsetsAppend computes, follow this order.
func (e *Explorer) SrcDoors() []indoor.DoorID { return e.srcDoors }

// PointOffsetsAppend appends, for a point inside the source partition, its
// in-partition distance to each source door — the per-client row offsets —
// to dst and returns the extended slice. Query engines that pool scratch
// memory pass a zero-length slice with retained capacity, so a warm buffer
// computes the offsets without allocating; a one-off caller passes a slice
// with capacity len(SrcDoors()), so it allocates once.
func (e *Explorer) PointOffsetsAppend(dst []float64, pt geom.Point) []float64 {
	for _, d := range e.srcDoors {
		dst = append(dst, e.t.venue.PointDoorDist(e.src, pt, d))
	}
	return dst
}

// ADVec returns the distance rows from each source door to each access door
// of node n. The returned slices are owned by the Explorer; callers must not
// modify them.
func (e *Explorer) ADVec(n NodeID) [][]float64 {
	if v := e.adVec[n]; v != nil {
		return v
	}
	var v [][]float64
	nd := e.t.nodes[n]
	if e.onPath(n) {
		v = e.pathADVec(n)
	} else {
		base, rows := e.base(nd)
		v = e.propagate(base, rows, e.t.nodes[nd.parent], nd.pcol)
	}
	e.adVec[n] = e.memo(n, v)
	return v
}

// base returns what the vector of nd, a node off the source path, derives
// from: the vector of a node below nd's parent p and that node's access
// doors' rows in p's union matrix. When p lies on the source path the base
// is p's child on the path; otherwise it is p itself.
func (e *Explorer) base(nd *node) ([][]float64, []int32) {
	p := nd.parent
	if e.onPath(p) {
		b := e.t.childOnPath(p, e.srcLeaf)
		return e.ADVec(b), e.t.nodes[b].pcol
	}
	return e.ADVec(p), e.t.nodes[p].ucol
}

// onPath reports whether n lies on the source leaf's path to the root.
func (e *Explorer) onPath(n NodeID) bool { return e.path[n] }

// pathADVec computes the access-door vector for a node on the source path.
func (e *Explorer) pathADVec(n NodeID) [][]float64 {
	t := e.t
	leaf := t.nodes[e.srcLeaf]
	if n == e.srcLeaf {
		v := e.alloc(len(e.srcDoors), len(leaf.access))
		for i, sd := range e.srcDoors {
			full := t.row(leaf.fullD, int(leaf.doorIdx[sd]), &e.rowBuf)
			for j, ad := range leaf.access {
				v[i][j] = full[leaf.doorIdx[ad]]
			}
		}
		return v
	}
	if t.opts.Vivid {
		// One lookup in the leaf's ancestor matrix.
		for k, a := range leaf.ancIDs {
			if a == n {
				v := e.alloc(len(e.srcDoors), len(t.nodes[n].access))
				for i, sd := range e.srcDoors {
					copy(v[i], t.row(leaf.ancD[k], int(leaf.doorIdx[sd]), &e.rowBuf))
				}
				return v
			}
		}
		panic("vip: ancestor matrix missing")
	}
	// IP-tree: climb one level using n's own matrix.
	child := t.childOnPath(n, e.srcLeaf)
	return e.propagate(e.ADVec(child), t.nodes[child].pcol, t.nodes[n], t.nodes[n].ucol)
}

// matrix returns a rows × cols matrix over one backing slice, and that
// slice. A fresh explorer allocates both, zeroed. A reset explorer carves
// them from its storage; when a block runs out it continues in a new one
// of at least twice the size, and the next Reset keeps only the newest.
func (e *Explorer) matrix(rows, cols int) (m [][]float64, backing []float64, zeroed bool) {
	n := rows * cols
	if !e.recycled || rows == 0 {
		backing = make([]float64, n)
		m = make([][]float64, rows)
		for i := range m {
			m[i] = backing[i*cols : (i+1)*cols]
		}
		return m, backing, true
	}
	c, r := len(e.cells), len(e.rows)
	if c+n > cap(e.cells) {
		e.cells, c = make([]float64, 0, max(n, 2*cap(e.cells))), 0
	}
	if r+rows > cap(e.rows) {
		e.rows, r = make([][]float64, 0, max(rows, 2*cap(e.rows))), 0
	}
	e.cells = e.cells[:c+n]
	e.rows = e.rows[:r+rows]
	backing = e.cells[c : c+n : c+n]
	m = e.rows[r : r+rows : r+rows]
	for i := range m {
		m[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m, backing, false
}

// alloc returns a zeroed rows × cols matrix (see matrix).
func (e *Explorer) alloc(rows, cols int) [][]float64 {
	m, backing, zeroed := e.matrix(rows, cols)
	if !zeroed {
		clear(backing)
	}
	return m
}

// allocInf returns a rows × cols matrix with every cell +Inf: the identity
// of the min-plus kernels below.
func (e *Explorer) allocInf(rows, cols int) [][]float64 {
	m, backing, _ := e.matrix(rows, cols)
	for i := range backing {
		backing[i] = math.Inf(1)
	}
	return m
}

// propagate derives rows over a target door set from rows over a base door
// set, connecting them through the union matrix of internal node via: rows
// holds the base doors' rows and cols the target doors' columns in that
// matrix (node positions from linkNodes).
//
// The min-plus product runs k-outer: each base door k reads one
// union-matrix row once and relaxes every output cell through it, so the
// inner loop walks a row instead of a column, and a paged tree touches
// each row once per call. Every cell starts at +Inf and takes a candidate
// only when it is strictly smaller, in k order — exactly the k-inner
// loop's sequence of comparisons per cell, so the result is bit-identical
// to it.
func (e *Explorer) propagate(base [][]float64, rows []int32, via *node, cols []int32) [][]float64 {
	v := e.allocInf(len(e.srcDoors), len(cols))
	for k, r := range rows {
		u := e.t.row(via.uD, int(r), &e.rowBuf)
		for i, vi := range v {
			b := base[i][k]
			for j, c := range cols {
				if s := b + u[c]; s < vi[j] {
					vi[j] = s
				}
			}
		}
	}
	return v
}

// DoorVec returns the distance rows from each source door to every door of
// leaf node n. The returned slices are owned by the Explorer.
func (e *Explorer) DoorVec(n NodeID) [][]float64 {
	if v := e.doorVec[n]; v != nil {
		return v
	}
	t := e.t
	nd := t.nodes[n]
	if !nd.leaf {
		panic("vip: DoorVec on internal node")
	}
	var v [][]float64
	if n == e.srcLeaf {
		v = e.alloc(len(e.srcDoors), len(nd.doors))
		for i, sd := range e.srcDoors {
			copy(v[i], t.row(nd.fullD, int(nd.doorIdx[sd]), &e.rowBuf))
		}
	} else {
		// The same k-outer min-plus kernel as propagate, through the
		// leaf's door matrix rows of its access doors.
		base := e.ADVec(n)
		v = e.allocInf(len(e.srcDoors), len(nd.doors))
		for k, ad := range nd.access {
			full := t.row(nd.fullD, int(nd.doorIdx[ad]), &e.rowBuf)
			for i, vi := range v {
				b := base[i][k]
				for j, f := range full {
					if s := b + f; s < vi[j] {
						vi[j] = s
					}
				}
			}
		}
	}
	e.doorVec[n] = e.memo(n, v)
	return v
}

// MinToNode returns iMinD(src, n): the shortest indoor distance from the
// source partition (distance zero to its own doors) to node n — zero when n
// contains the source.
func (e *Explorer) MinToNode(n NodeID) float64 { return e.nodeBound(nil, n) }

// nodeBound is the shortest distance to node n from the source doors at the
// given offsets, nil meaning all zero. It comes from the parent's
// bound-table rows for the base doors, whether or not n's vector is
// memoized, and builds no vector for n:
//
//	min over i, k of off[i] + (base[i][k] + cmin[p][rows[k]][pos(n)])
//
// which equals the minimum over the vector bit for bit. Rounded addition is
// monotone, so min_j fl(b + u_j) = fl(b + min_j u_j): each (i, k) term is
// the least of the candidates propagate would take for row i through base
// door k, and adding off[i] (exact when zero) keeps the order. This is the
// exactness argument of ARCHITECTURE §13.1.
func (e *Explorer) nodeBound(off []float64, n NodeID) float64 {
	if e.onPath(n) {
		return 0
	}
	best := math.Inf(1)
	nd := e.t.nodes[n]
	p := e.t.nodes[nd.parent]
	base, rows := e.base(nd)
	for k, r := range rows {
		m := e.t.minRow(p, int(r), &e.rowBuf)[nd.pos]
		for i, bi := range base {
			o := 0.0
			if off != nil {
				o = off[i]
			}
			if s := o + (bi[k] + m); s < best {
				best = s
			}
		}
	}
	return best
}

// PointToNode returns the shortest indoor distance from a point in the
// source partition (given its door offsets) to node n — zero when n contains
// the source partition.
func (e *Explorer) PointToNode(offsets []float64, n NodeID) float64 {
	return e.nodeBound(offsets, n)
}

// PointToPartition returns the exact indoor distance from a point in the
// source partition, given its door offsets, to partition f: the least
// offsets[i] + D[i][d] over the source doors i and f's doors d, where D is
// the leaf door vector DoorVec holds; zero if f is the source partition
// itself. Nil offsets put every source door at zero and give iMinD(src,
// f), the distance from the source partition itself; an exact zero added
// to a cell leaves it unchanged, so that is the least cell bit for bit.
func (e *Explorer) PointToPartition(offsets []float64, f indoor.PartitionID) float64 {
	if f == e.src {
		return 0
	}
	t := e.t
	leaf := t.leafOf[f]
	dv := e.DoorVec(leaf)
	nd := t.nodes[leaf]
	best := math.Inf(1)
	for i, row := range dv {
		o := 0.0
		if offsets != nil {
			o = offsets[i]
		}
		for _, d := range t.venue.Partition(f).Doors {
			if x := o + row[nd.doorIdx[d]]; x < best {
				best = x
			}
		}
	}
	return best
}

// DoorToPartition returns the least distance from source door i (the i-th
// of SrcDoors) to a door of partition f, zero if f is the source partition
// itself. It reads the DoorVec row PointToPartition reads for door i, and
// equals PointToPartition with offsets zero at door i and +Inf at every
// other door bit for bit: +Inf plus any cell is +Inf, which never beats
// the running minimum, and 0 + x = x.
func (e *Explorer) DoorToPartition(i int, f indoor.PartitionID) float64 {
	if f == e.src {
		return 0
	}
	t := e.t
	leaf := t.leafOf[f]
	row := e.DoorVec(leaf)[i]
	nd := t.nodes[leaf]
	best := math.Inf(1)
	for _, d := range t.venue.Partition(f).Doors {
		if x := row[nd.doorIdx[d]]; x < best {
			best = x
		}
	}
	return best
}

// PointToPoint returns the exact indoor distance from a point in the source
// partition to point q in partition qp.
func (e *Explorer) PointToPoint(offsets []float64, q geom.Point, qp indoor.PartitionID) float64 {
	v := e.t.venue
	if qp == e.src {
		// Same partition: free movement. The caller's point is implied by
		// offsets, which cannot express it, so this path needs the point
		// itself; Tree.DistPointToPoint handles it before calling here.
		panic("vip: PointToPoint within source partition; use venue.IntraPointDist")
	}
	t := e.t
	leaf := t.leafOf[qp]
	dv := e.DoorVec(leaf)
	nd := t.nodes[leaf]
	best := math.Inf(1)
	for i, row := range dv {
		for _, d := range v.Partition(qp).Doors {
			if x := offsets[i] + row[nd.doorIdx[d]] + v.PointDoorDist(qp, q, d); x < best {
				best = x
			}
		}
	}
	return best
}
