package vip

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// NodeID identifies a tree node; dense index into Tree.nodes. NodeIDs are
// plain values: copy and compare freely from any goroutine.
type NodeID int32

// NoNode marks the absence of a node (the root's parent).
const NoNode NodeID = -1

// Options configure tree construction. Options is a plain value; it is
// read only during Build and never mutated by the tree afterwards.
type Options struct {
	// LeafFanout is the maximum number of partitions per leaf node.
	// Zero means the default of 8.
	LeafFanout int
	// NodeFanout is the maximum number of children per internal node.
	// Zero means the default of 4.
	NodeFanout int
	// Vivid enables the leaf-to-ancestor matrices of the VIP-tree. When
	// false the index is a plain IP-tree: ancestor distance vectors are
	// derived by climbing one level at a time through the internal
	// matrices. Both variants return identical distances; Vivid trades
	// memory for query speed.
	Vivid bool
	// Workers bounds the goroutines used to fill the distance matrices
	// during Build. Zero, the value every production build uses, means
	// runtime.GOMAXPROCS(0); 1 forces the sequential path, which tests and
	// the parallel figure's sequential leg set. The resulting tree is
	// identical — bit for bit — for every worker count, because each
	// matrix row is written exactly once by the one worker that owns its
	// source door. Workers has no effect on queries, and SavePaged encodes
	// it as zero; the field stays because the index file's gob type
	// descriptor names it.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.LeafFanout == 0 {
		o.LeafFanout = 8
	}
	if o.NodeFanout == 0 {
		o.NodeFanout = 4
	}
	return o
}

// workerCount resolves Workers to a concrete goroutine count.
func (o Options) workerCount() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// DefaultOptions returns the standard VIP-tree configuration: fanouts 8/4,
// vivid matrices on, and parallel construction GOMAXPROCS wide.
func DefaultOptions() Options { return Options{LeafFanout: 8, NodeFanout: 4, Vivid: true} }

type node struct {
	id       NodeID
	parent   NodeID
	children []NodeID             // internal nodes only
	parts    []indoor.PartitionID // leaf nodes only
	leaf     bool

	doors   []indoor.DoorID // leaf: all doors of its partitions
	access  []indoor.DoorID // doors connecting the node to the outside
	doorIdx []int32         // dense door ID → row in doors; -1 when absent

	// uDoors is, for internal nodes, the union of the children's access
	// doors; the union matrix is over uDoors.
	uDoors []indoor.DoorID

	// Positions derived from the door sets by linkNodes: pos is the
	// node's index among its parent's children, pcol the columns of its
	// access doors in the parent's union matrix (nil for the root), and
	// ucol, for an internal node, the rows of its own access doors in its
	// own union matrix.
	pos  int32
	pcol []int32
	ucol []int32

	// cmin is an internal node's bound table, one slot per uDoors row:
	// row k holds, for each child position c, the minimum of union-matrix
	// row k over c's access-door columns. Rows are derived on first use
	// and published once (see Tree.minRow).
	cmin []atomic.Pointer[[]float64]

	// ancIDs lists, for leaves of a vivid tree, every strict ancestor
	// (parent first); the leaf has one ancestor matrix per entry, with
	// the leaf's doors as rows and the ancestor's access doors as columns.
	ancIDs []NodeID

	// The node's matrices in the page heap (see layoutMatrices): a leaf's
	// door × door matrix fullD and its ancestor matrices ancD (ancIDs
	// order), an internal node's union matrix uD. Tree.row reads them.
	fullD matDesc
	uD    matDesc
	ancD  []matDesc
}

// Tree is an immutable IP-/VIP-tree over a venue.
//
// Concurrency: a *Tree is safe for unlimited concurrent readers once Build
// (or Load) has returned — construction is the only phase that mutates it,
// and Build does not publish the tree until its worker goroutines have been
// joined, so the returning happens-before edge covers every matrix cell.
// Query-side state lives in per-caller Explorer values, with one
// exception: the bound table (node.cmin), the tree's one query-time cache.
// Each of its rows is derived from one union-matrix row by the first
// explorer that needs it and published once through an atomic pointer;
// an explorer that loses the race to publish reads the winner's row, which
// holds the same values. The table is derived data, never written to an
// index file. The other lazily-initialized field, the door graph of a
// Load-ed tree, is guarded by graphOnce (see Graph).
type Tree struct {
	venue     *indoor.Venue
	graph     *d2d.Graph
	graphOnce sync.Once
	opts      Options
	nodes     []*node
	root      NodeID
	// cells holds a resident tree's (Build, Load) matrix cells in the
	// page heap's layout. A paged tree (OpenPaged/OpenPagedFile) leaves it
	// nil and sets pages instead: its cells live in fixed-size on-disk
	// pages and fault in through an LRU cache on first use (see paged.go).
	cells []float64
	pages *pageStore
	// leafOf maps each partition to its leaf node.
	leafOf []NodeID
	// depth of each node; root is 0.
	depth []int
}

// Build constructs the index for venue v. Construction has three phases:
// clustering partitions into the node hierarchy, computing per-node door
// sets, and filling the distance matrices. The first two are cheap and run
// sequentially; the matrix fill — one Dijkstra per distinct source door,
// the dominant cost — fans out across opts.Workers goroutines. Build only
// returns after every worker has finished, so the caller may immediately
// share the returned *Tree across goroutines. Build itself must not be
// called concurrently with mutations of v; venues are immutable after
// indoor.Builder.Build, which makes this automatic.
//
// Build never panics on bad input: a nil or empty venue yields an error
// wrapping faults.ErrMalformedVenue, unusable fanouts wrap
// faults.ErrInvalidOptions, and a venue whose adjacency cannot be clustered
// into a hierarchy wraps faults.ErrMalformedVenue.
func Build(v *indoor.Venue, opts Options) (*Tree, error) {
	return BuildContext(context.Background(), v, opts)
}

// BuildContext is Build with cooperative cancellation. The context is polled
// once per source door during the matrix fill — the phase that dominates
// construction time — in both the sequential and the parallel path; the two
// cheap structural phases run to completion regardless. On cancellation the
// partially-filled tree is discarded and the error wraps both
// faults.ErrCancelled and the context's own error.
func BuildContext(ctx context.Context, v *indoor.Venue, opts Options) (*Tree, error) {
	if v == nil {
		return nil, fmt.Errorf("%w: nil venue", faults.ErrMalformedVenue)
	}
	if v.NumPartitions() == 0 {
		return nil, fmt.Errorf("%w: venue has no partitions", faults.ErrMalformedVenue)
	}
	opts = opts.withDefaults()
	if opts.LeafFanout < 1 || opts.NodeFanout < 2 {
		return nil, fmt.Errorf("%w: vip fanouts %d/%d (need leaf >= 1, node >= 2)",
			faults.ErrInvalidOptions, opts.LeafFanout, opts.NodeFanout)
	}
	t := &Tree{venue: v, graph: d2d.New(v), opts: opts}
	if err := t.buildStructure(); err != nil {
		return nil, err
	}
	t.computeDoorSets()
	if err := t.linkNodes(); err != nil {
		return nil, err
	}
	if err := t.fillMatrices(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build that panics on error. Its concurrency contract is
// Build's.
func MustBuild(v *indoor.Venue, opts Options) *Tree {
	t, err := Build(v, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Venue returns the venue the tree indexes. Safe for concurrent use; the
// returned venue is immutable.
func (t *Tree) Venue() *indoor.Venue { return t.venue }

// Options returns the options the tree was built with, defaults filled
// in. A tree opened from an index file reports the file's options with
// Workers zero.
func (t *Tree) Options() Options { return t.opts }

// Graph returns the underlying door-to-door graph (exact oracle, path
// reconstruction). Trees loaded with Load rebuild it on first use;
// the rebuild is synchronized, so Graph stays safe for concurrent readers.
func (t *Tree) Graph() *d2d.Graph {
	t.graphOnce.Do(func() {
		if t.graph == nil {
			t.graph = d2d.New(t.venue)
		}
	})
	return t.graph
}

// Root returns the root node ID. Safe for concurrent use.
func (t *Tree) Root() NodeID { return t.root }

// Leaf returns the leaf node containing partition p. Safe for concurrent
// use.
func (t *Tree) Leaf(p indoor.PartitionID) NodeID { return t.leafOf[p] }

// Parent returns n's parent, or NoNode for the root. Safe for concurrent
// use.
func (t *Tree) Parent(n NodeID) NodeID { return t.nodes[n].parent }

// Children returns n's child node IDs (nil for leaves). Safe for concurrent
// use; callers must not modify the returned slice.
func (t *Tree) Children(n NodeID) []NodeID { return t.nodes[n].children }

// IsLeaf reports whether n is a leaf node. Safe for concurrent use.
func (t *Tree) IsLeaf(n NodeID) bool { return t.nodes[n].leaf }

// Partitions returns the partitions of leaf node n (nil for internal
// nodes). Safe for concurrent use; callers must not modify the returned
// slice.
func (t *Tree) Partitions(n NodeID) []indoor.PartitionID { return t.nodes[n].parts }

// AccessDoors returns n's access doors. Safe for concurrent use; callers
// must not modify the returned slice.
func (t *Tree) AccessDoors(n NodeID) []indoor.DoorID { return t.nodes[n].access }

// NumNodes returns the total number of tree nodes. Safe for concurrent use.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Height returns the number of edges from root to leaves. Safe for
// concurrent use.
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.depth {
		if d > h {
			h = d
		}
	}
	return h
}

// Contains reports whether node n's subtree contains partition p. Safe for
// concurrent use.
func (t *Tree) Contains(n NodeID, p indoor.PartitionID) bool {
	for c := t.leafOf[p]; c != NoNode; c = t.nodes[c].parent {
		if c == n {
			return true
		}
	}
	return false
}

// childOnPath returns the child of ancestor a on the path to leaf l. a must
// be a strict ancestor of l.
func (t *Tree) childOnPath(a NodeID, l NodeID) NodeID {
	c := l
	for t.nodes[c].parent != a {
		c = t.nodes[c].parent
		if c == NoNode {
			panic("vip: childOnPath: not an ancestor")
		}
	}
	return c
}

// buildStructure clusters partitions into leaves and leaves into the node
// hierarchy by greedy adjacency-respecting BFS merging. It returns an error
// wrapping faults.ErrMalformedVenue when merging stalls, which only happens
// on venues whose partition adjacency violates the builder's invariants.
func (t *Tree) buildStructure() error {
	v := t.venue
	n := v.NumPartitions()
	t.leafOf = make([]NodeID, n)

	// Order seeds by door degree descending: hub partitions (corridors)
	// seed leaves first, which keeps strongly-connected clusters together
	// — the heuristic role the "vivid" paper assigns to high-connectivity
	// partitions.
	order := make([]indoor.PartitionID, n)
	for i := range order {
		order[i] = indoor.PartitionID(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return len(v.Partition(order[i]).Doors) > len(v.Partition(order[j]).Doors)
	})

	assigned := make([]bool, n)
	for _, seed := range order {
		if assigned[seed] {
			continue
		}
		nd := &node{id: NodeID(len(t.nodes)), parent: NoNode, leaf: true}
		// BFS from the seed over partition adjacency, taking unassigned
		// partitions up to the fanout.
		queue := []indoor.PartitionID{seed}
		assigned[seed] = true
		for len(queue) > 0 && len(nd.parts) < t.opts.LeafFanout {
			p := queue[0]
			queue = queue[1:]
			nd.parts = append(nd.parts, p)
			t.leafOf[p] = nd.id
			for _, q := range v.AdjacentPartitions(p) {
				if !assigned[q] && len(nd.parts)+len(queue) < t.opts.LeafFanout {
					assigned[q] = true
					queue = append(queue, q)
				}
			}
		}
		// Partitions still queued were reserved but not placed; place them.
		for _, p := range queue {
			nd.parts = append(nd.parts, p)
			t.leafOf[p] = nd.id
		}
		t.nodes = append(t.nodes, nd)
	}

	// Merge nodes level by level until one remains.
	current := make([]NodeID, len(t.nodes))
	for i := range current {
		current[i] = NodeID(i)
	}
	for len(current) > 1 {
		next := t.mergeLevel(current)
		if len(next) >= len(current) {
			return fmt.Errorf("%w: vip merge made no progress at %d nodes", faults.ErrMalformedVenue, len(current))
		}
		current = next
	}
	t.root = current[0]

	t.depth = make([]int, len(t.nodes))
	var setDepth func(n NodeID, d int)
	setDepth = func(n NodeID, d int) {
		t.depth[n] = d
		for _, c := range t.nodes[n].children {
			setDepth(c, d+1)
		}
	}
	setDepth(t.root, 0)
	return nil
}

// mergeLevel groups the given sibling candidates into parents by adjacency.
func (t *Tree) mergeLevel(level []NodeID) []NodeID {
	// Node adjacency: two nodes are adjacent if a door joins partitions in
	// each. Build partition -> level-node mapping first.
	nodeOf := make([]NodeID, t.venue.NumPartitions())
	for i := range nodeOf {
		nodeOf[i] = NoNode
	}
	for _, id := range level {
		for _, p := range t.collectParts(id) {
			nodeOf[p] = id
		}
	}
	adj := make(map[NodeID]map[NodeID]bool, len(level))
	for _, d := range t.venue.Doors {
		if d.B == indoor.NoPartition {
			continue
		}
		a, b := nodeOf[d.A], nodeOf[d.B]
		if a == b || a == NoNode || b == NoNode {
			continue
		}
		if adj[a] == nil {
			adj[a] = map[NodeID]bool{}
		}
		if adj[b] == nil {
			adj[b] = map[NodeID]bool{}
		}
		adj[a][b] = true
		adj[b][a] = true
	}

	// Seed by descending adjacency degree, BFS-merge up to NodeFanout.
	orderIDs := append([]NodeID(nil), level...)
	sort.SliceStable(orderIDs, func(i, j int) bool {
		return len(adj[orderIDs[i]]) > len(adj[orderIDs[j]])
	})
	merged := make(map[NodeID]bool, len(level))
	var next []NodeID
	for _, seed := range orderIDs {
		if merged[seed] {
			continue
		}
		parent := &node{id: NodeID(len(t.nodes)), parent: NoNode}
		queue := []NodeID{seed}
		merged[seed] = true
		for len(queue) > 0 && len(parent.children) < t.opts.NodeFanout {
			c := queue[0]
			queue = queue[1:]
			parent.children = append(parent.children, c)
			t.nodes[c].parent = parent.id
			var neighbors []NodeID
			for nb := range adj[c] {
				neighbors = append(neighbors, nb)
			}
			sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
			for _, nb := range neighbors {
				if !merged[nb] && len(parent.children)+len(queue) < t.opts.NodeFanout {
					merged[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		for _, c := range queue {
			parent.children = append(parent.children, c)
			t.nodes[c].parent = parent.id
		}
		if len(parent.children) == 1 && len(orderIDs) > 1 {
			// A singleton parent adds a useless level; leave the child for
			// a later seed to absorb — unless nothing absorbed it, in
			// which case keep the singleton to guarantee progress.
			child := parent.children[0]
			t.nodes[child].parent = NoNode
			merged[child] = false
			// Try to attach to the last created parent with spare fanout.
			attached := false
			for i := len(next) - 1; i >= 0; i-- {
				pn := t.nodes[next[i]]
				if len(pn.children) < t.opts.NodeFanout {
					pn.children = append(pn.children, child)
					t.nodes[child].parent = pn.id
					merged[child] = true
					attached = true
					break
				}
			}
			if attached {
				continue
			}
			// Re-adopt as singleton to guarantee progress.
			t.nodes[child].parent = parent.id
			merged[child] = true
		}
		t.nodes = append(t.nodes, parent)
		next = append(next, parent.id)
	}
	return next
}

// collectParts returns all partitions in n's subtree.
func (t *Tree) collectParts(id NodeID) []indoor.PartitionID {
	n := t.nodes[id]
	if n.leaf {
		return n.parts
	}
	var out []indoor.PartitionID
	for _, c := range n.children {
		out = append(out, t.collectParts(c)...)
	}
	return out
}

// computeDoorSets fills doors, access doors, the uDoors unions and, in a
// vivid tree, each leaf's ancestor list.
func (t *Tree) computeDoorSets() {
	v := t.venue
	// inSubtree[n] set of partitions — computed via leafOf + ancestor walk
	// per door, cheaper than materializing sets.
	for _, nd := range t.nodes {
		if !nd.leaf {
			continue
		}
		seen := map[indoor.DoorID]bool{}
		for _, p := range nd.parts {
			for _, d := range v.Partition(p).Doors {
				if !seen[d] {
					seen[d] = true
					nd.doors = append(nd.doors, d)
				}
			}
		}
		sort.Slice(nd.doors, func(i, j int) bool { return nd.doors[i] < nd.doors[j] })
	}
	// Access doors of node n: doors with exactly one side inside n's
	// subtree (exterior doors lead outside the venue and are not access
	// doors for indoor routing).
	for _, nd := range t.nodes {
		for _, d := range t.nodeDoors(nd.id) {
			door := v.Door(d)
			if door.B == indoor.NoPartition {
				continue
			}
			inA := t.Contains(nd.id, door.A)
			inB := t.Contains(nd.id, door.B)
			if inA != inB {
				nd.access = append(nd.access, d)
			}
		}
		sort.Slice(nd.access, func(i, j int) bool { return nd.access[i] < nd.access[j] })
	}
	// uDoors for internal nodes.
	for _, nd := range t.nodes {
		if nd.leaf {
			continue
		}
		seen := map[indoor.DoorID]bool{}
		for _, c := range nd.children {
			for _, d := range t.nodes[c].access {
				if !seen[d] {
					seen[d] = true
					nd.uDoors = append(nd.uDoors, d)
				}
			}
		}
		sort.Slice(nd.uDoors, func(i, j int) bool { return nd.uDoors[i] < nd.uDoors[j] })
	}
	if t.opts.Vivid {
		for _, nd := range t.nodes {
			if !nd.leaf {
				continue
			}
			for a := nd.parent; a != NoNode; a = t.nodes[a].parent {
				nd.ancIDs = append(nd.ancIDs, a)
			}
		}
	}
}

// linkNodes derives from the door sets the lookups queries read: each
// leaf's door rows, each node's position among its parent's children, the
// union-matrix positions of its access doors (pcol, ucol), and the empty
// slots of the bound table. Build, Load and OpenPaged all run it after the
// structure is known. It fails, wrapping faults.ErrCorruptIndex, only when
// an access door is missing from the union it must belong to, which a
// built tree never has.
func (t *Tree) linkNodes() error {
	idx := denseIdx(t.venue.NumDoors(), nil)
	cols := func(doors []indoor.DoorID, via NodeID) ([]int32, error) {
		out := make([]int32, len(doors))
		for j, d := range doors {
			if out[j] = idx[d]; out[j] < 0 {
				return nil, corrupt("access door %d is not in the union matrix of node %d", d, via)
			}
		}
		return out, nil
	}
	for _, nd := range t.nodes {
		if nd.leaf {
			nd.doorIdx = denseIdx(t.venue.NumDoors(), nd.doors)
			continue
		}
		for i, d := range nd.uDoors {
			idx[d] = int32(i)
		}
		var err error
		if nd.ucol, err = cols(nd.access, nd.id); err != nil {
			return err
		}
		for c, id := range nd.children {
			ch := t.nodes[id]
			ch.pos = int32(c)
			if ch.pcol, err = cols(ch.access, nd.id); err != nil {
				return err
			}
		}
		nd.cmin = make([]atomic.Pointer[[]float64], len(nd.uDoors))
		for _, d := range nd.uDoors {
			idx[d] = -1
		}
	}
	return nil
}

// minRow returns row k of internal node p's bound table: for each child
// position c, the minimum of union-matrix row k over c's access-door
// columns (+Inf for a child without access doors). The first call for a
// row reads union row k through Tree.row (buf as there) and publishes the
// derived row with a compare-and-swap; later calls, from any goroutine,
// read the published row. A failed page read panics before anything is
// published, so the next caller retries the read.
func (t *Tree) minRow(p *node, k int, buf *[]float64) []float64 {
	if r := p.cmin[k].Load(); r != nil {
		return *r
	}
	u := t.row(p.uD, k, buf)
	r := make([]float64, len(p.children))
	for c, id := range p.children {
		m := math.Inf(1)
		for _, j := range t.nodes[id].pcol {
			if u[j] < m {
				m = u[j]
			}
		}
		r[c] = m
	}
	if !p.cmin[k].CompareAndSwap(nil, &r) {
		return *p.cmin[k].Load()
	}
	return r
}

// denseIdx builds a door-row lookup over the venue's contiguous door ID
// space: idx[d] is the row of door d in doors, -1 when absent. An array
// lookup replaces the map probe on every matrix access in the explorer hot
// path.
func denseIdx(numDoors int, doors []indoor.DoorID) []int32 {
	idx := make([]int32, numDoors)
	for i := range idx {
		idx[i] = -1
	}
	for i, d := range doors {
		idx[d] = int32(i)
	}
	return idx
}

// nodeDoors returns all doors of n's subtree boundary-or-interior for leaf
// nodes, and the union of children's doors for internal nodes. Internal
// nodes only need candidate doors to classify as access doors, and every
// access door of n is an access door of one of its children, so the union
// of children's access doors suffices there.
func (t *Tree) nodeDoors(id NodeID) []indoor.DoorID {
	n := t.nodes[id]
	if n.leaf {
		return n.doors
	}
	var out []indoor.DoorID
	seen := map[indoor.DoorID]bool{}
	for _, c := range n.children {
		for _, d := range t.nodes[c].access {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// rowTarget records where one source door's Dijkstra results land: the
// heap cells from off on, one per column door of col.
type rowTarget struct {
	off int64
	col []indoor.DoorID // column door ordering
}

// fillMatrices lays out the page heap, allocates it as one cell slab, and
// runs one Dijkstra per needed source door to fill its rows — the
// dominant cost of Build.
//
// Because the stored distances are global (not within-subtree as in the
// original paper), every matrix row depends only on its own source door's
// Dijkstra: leaf, ancestor, and internal-node rows alike. All fills are
// therefore mutually independent and fan out in a single level-free wave
// across the worker pool; no inter-level barrier is needed. Each worker
// writes disjoint cell ranges of the slab (a door owns its rows in every
// matrix it sources), so the fill is race-free and its result is
// bit-identical for every worker count.
//
// Cancellation: ctx is polled before each source door's Dijkstra. Every
// worker polls independently and stops claiming doors once any worker
// observes the cancel; the already-running Dijkstras finish (each is
// short) and the error is returned after the pool joins, so no goroutine
// outlives the call. A background context costs one nil check per door.
func (t *Tree) fillMatrices(ctx context.Context) error {
	t.cells = make([]float64, t.layoutMatrices())

	// Which doors are matrix row sources, and where do the rows land?
	rowTargets := map[indoor.DoorID][]rowTarget{}
	target := func(d indoor.DoorID, m matDesc, ri int, col []indoor.DoorID) {
		rowTargets[d] = append(rowTargets[d], rowTarget{off: m.off + int64(ri)*int64(m.cols), col: col})
	}
	for _, nd := range t.nodes {
		if !nd.leaf {
			for i, d := range nd.uDoors {
				target(d, nd.uD, i, nd.uDoors)
			}
			continue
		}
		for i, d := range nd.doors {
			target(d, nd.fullD, i, nd.doors)
			for k, a := range nd.ancIDs {
				target(d, nd.ancD[k], i, t.nodes[a].access)
			}
		}
	}

	doors := make([]indoor.DoorID, 0, len(rowTargets))
	for d := range rowTargets {
		doors = append(doors, d)
	}
	sort.Slice(doors, func(i, j int) bool { return doors[i] < doors[j] })

	// Static striding keeps the work split deterministic; the per-door
	// cost is one Dijkstra over the whole door graph, uniform enough that
	// striding balances as well as a shared counter without the
	// contention. The calling goroutine takes stride 0, so one worker
	// spawns no goroutine. stopped latches the first observed cancellation
	// so every worker quits claiming doors promptly, not just the one that
	// saw it.
	poll := ctx != nil && ctx.Done() != nil
	workers := min(t.opts.workerCount(), len(doors))
	var stopped atomic.Bool
	stride := func(w int) {
		for i := w; i < len(doors); i += workers {
			if poll {
				if stopped.Load() {
					return
				}
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
			}
			t.fillDoorRows(doors[i], rowTargets[doors[i]])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stride(w)
		}(w)
	}
	stride(0)
	wg.Wait()
	if stopped.Load() {
		return faults.Cancelled(ctx.Err())
	}
	return nil
}

// fillDoorRows runs the Dijkstra for one source door and writes its rows.
// Distinct doors write distinct rows, so concurrent calls on distinct doors
// never touch the same memory.
func (t *Tree) fillDoorRows(d indoor.DoorID, targets []rowTarget) {
	dist := t.graph.FromDoor(d)
	for _, tg := range targets {
		row := t.cells[tg.off : tg.off+int64(len(tg.col))]
		for j, cd := range tg.col {
			row[j] = dist[cd]
		}
	}
}

// MemoryFootprint returns the number of float64 distance cells stored
// across all matrices — the index-size metric reported in experiments. It
// is the page heap's cell count, so it is the matrix size whether the cells
// are resident or live in an on-disk page heap. Safe for concurrent use.
func (t *Tree) MemoryFootprint() int {
	if t.pages != nil {
		return int(t.pages.cells)
	}
	return len(t.cells)
}

// CheckInvariants verifies structural invariants; tests use it. Safe for
// concurrent use (read-only).
func (t *Tree) CheckInvariants() error {
	seenPart := make([]bool, t.venue.NumPartitions())
	for id, nd := range t.nodes {
		if NodeID(id) != nd.id {
			return fmt.Errorf("node %d has id %d", id, nd.id)
		}
		if nd.leaf {
			if len(nd.parts) == 0 {
				return fmt.Errorf("leaf %d empty", id)
			}
			if len(nd.parts) > t.opts.LeafFanout {
				return fmt.Errorf("leaf %d overfull: %d partitions", id, len(nd.parts))
			}
			for _, p := range nd.parts {
				if seenPart[p] {
					return fmt.Errorf("partition %d in two leaves", p)
				}
				seenPart[p] = true
				if t.leafOf[p] != nd.id {
					return fmt.Errorf("leafOf[%d] = %d, want %d", p, t.leafOf[p], nd.id)
				}
			}
		} else {
			if len(nd.children) == 0 {
				return fmt.Errorf("internal node %d childless", id)
			}
			for _, c := range nd.children {
				if t.nodes[c].parent != nd.id {
					return fmt.Errorf("child %d of %d has parent %d", c, id, t.nodes[c].parent)
				}
			}
		}
		if nd.id != t.root && nd.parent == NoNode {
			return fmt.Errorf("non-root node %d orphaned", id)
		}
	}
	for p, s := range seenPart {
		if !s {
			return fmt.Errorf("partition %d not in any leaf", p)
		}
	}
	if t.nodes[t.root].parent != NoNode {
		return fmt.Errorf("root has a parent")
	}
	return nil
}
