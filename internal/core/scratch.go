package core

import (
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pq"
	"github.com/indoorspatial/ifls/internal/vip"
)

// Scratch owns the engine's reusable per-query working memory: the solver
// state structs, their priority queues, and the dense columnar per-partition
// state every run indexes by the venue's contiguous partition and node IDs.
// Passing one Scratch to repeated Exec calls keeps steady-state allocations
// at zero — each run resets lengths (or just bumps an epoch) but retains
// capacity — without changing any result: a reset Scratch is observationally
// identical to freshly allocated state, including the Stats the solvers
// report (the memory metric is computed from live lengths, which a reset
// zeroes). Runs that pass no Scratch get a private one, so there is a single
// code path regardless of pooling.
//
// The per-partition columns (facility flags, candidate indexes, visited-node
// stamps) are epoch-stamped: an entry is live only while its stamp equals
// the current epoch, so resetting them for a new run is a single integer
// increment instead of an O(partitions) clear. Stamps survive across venues
// of the same size — a stale stamp from another tree is simply not equal to
// the new epoch. On the (astronomically rare) epoch wrap the columns are
// cleared once and the epoch restarts at 1.
//
// A Scratch is a single-goroutine value: it may back at most one running
// Exec at a time, and reusing it concurrently corrupts solver state. Pool
// Scratches (sync.Pool or one per worker) for concurrent callers;
// internal/batch does exactly that. The zero value is ready to use.
//
// Scratch never retains caller-visible memory: result slices that escape
// (the top-k ranking) are always freshly allocated. The explorer cache is
// emptied between runs unless the caller supplies its own persistent cache
// (Session does); the emptied explorers are kept as spares and re-rooted
// by the next run on the same tree, so a pooled cold run reuses their
// vector storage instead of allocating it, and computes every vector
// afresh.
//
// Retention is bounded: oversized buffers left behind by a large query are
// trimmed back on the next claim (see resize and resetQueue), so a Scratch
// that once served |C| = 10000 does not pin that memory while serving
// |C| = 10 forever. The same holds for explorers: the spares are at most
// the explorers the last run used, all over the tree being claimed, and a
// spare's storage is trimmed by the same rule when it is re-rooted.
type Scratch struct {
	// Solver state shells — reused in place so a pooled run allocates no
	// state struct at all.
	ea  eaState
	ext extState
	md  minDistObj
	ms  maxSumObj

	// Monotone bucket queues, shared by whichever state is running (states
	// never run concurrently on one Scratch). Every solver loop pops in
	// nondecreasing priority order, so the queues' O(1) bucket path is the
	// steady state; the embedded heap fallback covers the few deliberately
	// non-monotone pushes (e.g. white-box tests).
	queue     pq.Bucket[eaEntry]
	events    pq.Bucket[eaEvent]
	pruneHeap pq.Bucket[int32]
	satHeap   pq.Bucket[int32]
	pending   pq.Bucket[pendPair]

	// explorers is the scratch-owned explorer cache, emptied every run so
	// pooled queries report the same Stats as fresh ones; its spares carry
	// explorer storage to the next run. Session bypasses it with its own
	// persistent cache.
	explorers explorerCache

	// Dense per-partition facility columns, epoch-stamped. partFlag[p]
	// holds the pf* bits for partition p when partStamp[p] == partEpoch;
	// partCand[p] is the candidate index when pfCand is set.
	partStamp []uint32
	partFlag  []uint8
	partCand  []int32
	partEpoch uint32

	// clientsOf[p] is C'[p], the active-client indexes of partition p;
	// parts lists the partitions touched this run, so the next claim
	// truncates only those lists.
	clientsOf [][]int32
	parts     []int32

	// visitRows[p] stamps the tree nodes visited by partition p's
	// traversal: node n is visited when visitRows[p][n] == visitEpoch.
	// Rows are allocated lazily, only for partitions that traverse.
	visitRows  [][]uint32
	visitEpoch uint32
	visitCount int
	numNodes   int
}

// NewScratch returns an empty Scratch. Equivalent to new(Scratch); the
// containers are grown lazily by the first run.
func NewScratch() *Scratch { return &Scratch{} }

// Facility-role bits of partFlag.
const (
	pfExist  uint8 = 1 << iota // partition hosts an existing facility
	pfCand                     // partition is a (deduplicated) candidate
	pfRanked                   // candidate already ranked (top-k mode)
)

// Retention-trim policy: a buffer is reallocated at its needed size when its
// capacity is both above minRetainCap and more than trimFactor times the
// need; inner per-client lists and queues are bounded by absolute caps.
const (
	minRetainCap = 1024    // slices at or below this cap are never trimmed
	trimFactor   = 4       // trim when capacity exceeds trimFactor x need
	innerTrimCap = 4096    // per-inner-list retained capacity bound (elems)
	queueTrimCap = 1 << 15 // queue entries retained across runs
)

// claim prepares the Scratch for one run over tree t: sizes the dense
// partition columns to the venue, advances the epochs (an O(1) reset of the
// flag and visited columns), truncates the touched client lists, resets the
// queues, and clears the run-local explorer cache. Called once per run by
// the state constructors.
func (sc *Scratch) claim(t *vip.Tree) {
	numParts := t.Venue().NumPartitions()
	if len(sc.partStamp) != numParts {
		sc.partStamp = make([]uint32, numParts)
		sc.partFlag = make([]uint8, numParts)
		sc.partCand = make([]int32, numParts)
		sc.partEpoch = 0
	}
	sc.partEpoch++
	if sc.partEpoch == 0 { // wrap: clear once, restart at 1
		clear(sc.partStamp)
		sc.partEpoch = 1
	}

	if len(sc.clientsOf) != numParts {
		sc.clientsOf = make([][]int32, numParts)
		sc.parts = sc.parts[:0]
	} else {
		for _, p := range sc.parts {
			if cap(sc.clientsOf[p]) > innerTrimCap {
				sc.clientsOf[p] = nil
			} else {
				sc.clientsOf[p] = sc.clientsOf[p][:0]
			}
		}
		sc.parts = sc.parts[:0]
	}

	if len(sc.visitRows) != numParts {
		sc.visitRows = make([][]uint32, numParts)
		sc.visitEpoch = 0
	}
	sc.visitEpoch++
	if sc.visitEpoch == 0 { // wrap: clear every retained row once
		for i := range sc.visitRows {
			clear(sc.visitRows[i])
		}
		sc.visitEpoch = 1
	}
	sc.visitCount = 0
	sc.numNodes = t.NumNodes()

	resetQueue(&sc.queue)
	resetQueue(&sc.events)
	resetQueue(&sc.pruneHeap)
	resetQueue(&sc.satHeap)
	resetQueue(&sc.pending)

	sc.explorers.reset(t)
}

// markPart sets facility-role bits for partition f in the current epoch.
func (sc *Scratch) markPart(f indoor.PartitionID, bits uint8) {
	if sc.partStamp[f] != sc.partEpoch {
		sc.partStamp[f] = sc.partEpoch
		sc.partFlag[f] = 0
	}
	sc.partFlag[f] |= bits
}

// partFlags returns partition f's facility-role bits in the current epoch
// (zero when the partition was not marked this run).
func (sc *Scratch) partFlags(f indoor.PartitionID) uint8 {
	if sc.partStamp[f] != sc.partEpoch {
		return 0
	}
	return sc.partFlag[f]
}

// partHas reports whether partition f carries all the given bits this run.
func (sc *Scratch) partHas(f indoor.PartitionID, bits uint8) bool {
	return sc.partFlags(f)&bits == bits
}

// addClient appends client ci to C'[p], recording p as touched on its first
// client. Callers only add during the run preamble, before any mid-run
// pruning empties a list, so the zero-length check is a reliable first-touch
// test.
func (sc *Scratch) addClient(p indoor.PartitionID, ci int32) {
	list := sc.clientsOf[p]
	if len(list) == 0 {
		sc.parts = append(sc.parts, int32(p))
	}
	sc.clientsOf[p] = append(list, ci)
}

// removeClient swap-removes client ci from C'[p].
func (sc *Scratch) removeClient(p indoor.PartitionID, ci int32) {
	list := sc.clientsOf[p]
	for i, c := range list {
		if c == ci {
			list[i] = list[len(list)-1]
			sc.clientsOf[p] = list[:len(list)-1]
			return
		}
	}
}

// visit stamps node n as visited by partition p's traversal and reports
// whether it was new. The per-partition row is allocated (or resized after a
// venue change) on first touch.
func (sc *Scratch) visit(p indoor.PartitionID, n vip.NodeID) bool {
	row := sc.visitRows[p]
	if len(row) != sc.numNodes {
		row = make([]uint32, sc.numNodes)
		sc.visitRows[p] = row
	}
	if row[n] == sc.visitEpoch {
		return false
	}
	row[n] = sc.visitEpoch
	sc.visitCount++
	return true
}

// explorerCache maps partitions to their vip.Explorer through a dense
// ID-indexed slice, with a touched list so reset is proportional to the
// explorers actually created. The Scratch-owned instance is emptied every
// run, and the run's explorers become spares that the next run on the same
// tree re-roots at its own sources (vip.Explorer.Reset) instead of building
// new ones. Session keeps a persistent cache, which is never reset and so
// holds no spares, so the distance-vector memos survive across queries.
type explorerCache struct {
	byPart []*vip.Explorer
	parts  []int32

	// spares are explorers over tree that no partition holds this run, at
	// most as many as the last run used.
	tree   *vip.Tree
	spares []*vip.Explorer
}

// reset empties the cache for a run over tree t. If the last run was over
// t too, its explorers become the spares; every older spare, and every
// explorer of another tree, is dropped. The index is resized to the venue
// when it changed.
func (c *explorerCache) reset(t *vip.Tree) {
	clear(c.spares[:cap(c.spares)])
	c.spares = c.spares[:0]
	for _, p := range c.parts {
		if c.tree == t {
			c.spares = append(c.spares, c.byPart[p])
		}
		c.byPart[p] = nil
	}
	c.parts = c.parts[:0]
	c.tree = t
	if numParts := t.Venue().NumPartitions(); len(c.byPart) != numParts {
		c.byPart = make([]*vip.Explorer, numParts)
	}
}

// get returns partition p's explorer, creating and caching it on first use:
// a spare re-rooted at p while one is left, a new explorer after that.
func (c *explorerCache) get(t *vip.Tree, p indoor.PartitionID) *vip.Explorer {
	if e := c.byPart[p]; e != nil {
		return e
	}
	var e *vip.Explorer
	if n := len(c.spares); n > 0 {
		e = c.spares[n-1]
		c.spares[n-1] = nil
		c.spares = c.spares[:n-1]
		e.Reset(p)
	} else {
		e = t.NewExplorer(p)
	}
	c.byPart[p] = e
	c.parts = append(c.parts, int32(p))
	return e
}

// size returns the number of cached explorers.
func (c *explorerCache) size() int { return len(c.parts) }

// retainedBytes sums the cached explorers' retained memo bytes.
func (c *explorerCache) retainedBytes() int {
	total := 0
	for _, p := range c.parts {
		total += c.byPart[p].RetainedBytes()
	}
	return total
}

// resetQueue empties a bucket queue, dropping its storage when it grew past
// the retention bound.
func resetQueue[T any](q *pq.Bucket[T]) {
	if q.Cap() > queueTrimCap {
		*q = pq.Bucket[T]{}
		return
	}
	q.Reset()
}

// resize returns s with length n and every element zeroed, retaining the
// backing array when it is large enough but not oversized (see the trim
// policy constants). resize(nil, n) is make([]T, n).
func resize[T any](s []T, n int) []T {
	if cap(s) < n || (cap(s) > minRetainCap && cap(s) > trimFactor*n) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeLists returns s with length n and every inner slice truncated to
// [:0], retaining inner capacity up to innerTrimCap. Inner slices parked
// beyond the previous length (after a shrink) are recovered when the outer
// slice regrows; an oversized outer slice is dropped wholesale.
func resizeLists[T any](s [][]T, n int) [][]T {
	if cap(s) > minRetainCap && cap(s) > trimFactor*n {
		return make([][]T, n)
	}
	if cap(s) < n {
		ns := make([][]T, n)
		copy(ns, s[:cap(s)])
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		if cap(s[i]) > innerTrimCap {
			s[i] = nil
		} else {
			s[i] = s[i][:0]
		}
	}
	return s
}
