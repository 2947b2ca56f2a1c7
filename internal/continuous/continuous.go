// Package continuous maintains a standing IFLS answer over a changing
// world: clients move (a motion.Simulation advances in ticks) and doors
// open and close (a temporal.Timetable crosses schedule boundaries). The
// paper names exactly this setting as future work ("we plan to consider
// moving clients"); the engine here answers it by *maintaining* the query
// instead of re-solving from scratch each tick.
//
// # Incremental model
//
// The engine caches, per client, a distance row: the distance to its
// nearest existing facility and to every candidate. A row is resolved
// from its partition's signature alone — the partition's doors'
// distances to every facility, computed once per era and occupied
// partition with the same vip.Explorer primitives the batch solver uses,
// plus the doors' locations. Resolve bounds each door's in-partition
// offset from below by max(|Δx|, |Δy|) and takes the exact offset only
// for doors the bound cannot rule out.
//
// A client that has not moved since its row was resolved reuses the row
// as it is. A client that moved need not be resolved either: a point's
// distance to any facility is 1-Lipschitz in indoor distance, and the
// walker's odometer (motion.Simulation.Odometer) bounds the indoor
// distance it has covered since the resolve. So each value the row holds
// lies within the odometer's advance, padded for rounding, of the stored
// one. Combine then resolves only the stale rows that can set the answer,
// the paper's pruning (Algorithms 2–3 drop clients that cannot change the
// answer) carried across ticks. It settles the status quo, then visits
// the candidates by ascending upper bound: a candidate whose lower bound
// loses to the best so far is skipped, and otherwise the stale rows whose
// upper bounds reach above its known maximum are resolved, highest first,
// until the maximum is exact. Every other moved row is carried on its
// bound to the next tick. Bookkeeping is O(|C|·|Fn|) per tick. The result
// reproduces the solver's exact semantics — Found iff the best candidate
// strictly improves on the status quo, ties broken to the lowest
// candidate partition ID — and is bit-identical to a combine over fully
// resolved rows, so the maintained answer is identical to a fresh
// core.Exec over the same snapshot (pinned by the package's differential
// tests).
//
// Bounds hold only where the walkers and the era share one metric. Walkers
// walk the base venue, through closed doors too, so the engine carries
// rows only in the all-open era, and only on a venue whose door graph
// prices walks as walkers walk them (legMetric). With any door closed,
// and on every transition tick, each moved row is resolved.
//
// # Topology eras
//
// Door schedules partition simulated time into eras of constant topology.
// When the timetable's open-door mask changes between ticks, the engine
// materializes the new era (temporal.Timetable.Snapshot plus a fresh
// VIP-tree over the snapshot venue — rare, amortized over the era) and
// invalidates cached rows *selectively*: a client row survives a
// transition when its partition's distance state is provably unchanged.
// The proof compares, per occupied partition, the partition's open-door
// set and the exact door-to-facility distance vectors in the old and new
// eras; any point-to-facility distance from a partition decomposes as
// min over doors of (in-partition offset + door-to-facility distance), so
// equal door sets and equal vectors imply every cached row from that
// partition is still exact. Rows reachable only through the flipped door
// fail the comparison and are recomputed.
//
// # Concurrency
//
// An Engine is a single-goroutine value, like the Session and Explorer it
// builds on: Tick, Subscribe, and the getters must not be called
// concurrently. Wrap it in the serving layer for shared access.
//
// Inside New and Tick, the partition signatures the call needs are
// computed before any row is resolved, and from two of them on they fan
// out over runtime.GOMAXPROCS(0) goroutines, each with its own explorer
// over the era's immutable tree (era.sign). A signature's bits do not
// depend on the goroutine that computes it, and the memo is written on
// the calling goroutine after every worker has joined, so rows, answers
// and counters are those of a serial engine. A panic in a worker (a paged
// tree's failed page read panics with a faults.ErrCorruptIndex error) is
// re-raised on the calling goroutine once every worker has joined, and no
// goroutine outlives the call.
package continuous

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/vip"
)

// EventKind classifies engine events.
type EventKind uint8

const (
	// EventTick is delivered after every tick, carrying the maintained
	// result for the new snapshot.
	EventTick EventKind = iota
	// EventAnswerChanged is delivered (after the tick's EventTick) when
	// the maintained result differs from the previous tick's.
	EventAnswerChanged
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventTick:
		return "tick"
	case EventAnswerChanged:
		return "answer_changed"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one engine notification.
type Event struct {
	Kind EventKind
	// Tick is the tick number (1 for the first Tick call).
	Tick int64
	// At is the simulated time-of-day of the snapshot.
	At time.Duration
	// Result is the maintained IFLS answer for the snapshot.
	Result core.Result
	// Resolved, Reused and Carried split the snapshot's clients: rows
	// recomputed this tick, rows exact from an earlier tick because the
	// client has not moved since, and rows of moved clients kept on a
	// drift bound because they could not change the answer.
	Resolved, Reused, Carried int
	// Invalidated counts client rows discarded by a door-schedule
	// transition during this tick (0 on steady-state ticks).
	Invalidated int
	// Signed counts the partition signatures computed during this tick:
	// the new era's on a transition, and those of partitions walkers
	// entered that the era had not signed yet.
	Signed int
}

// Config parameterizes New.
type Config struct {
	// Tree is the VIP-tree over the base venue (all doors open). Era trees
	// after a transition are built with its options. Required.
	Tree *vip.Tree
	// Sim is the client population. The engine owns stepping it: callers
	// must not call Sim.Step while the engine is live. It must walk the
	// Tree's venue (the same *indoor.Venue); New refuses any other.
	// Required.
	Sim *motion.Simulation
	// Existing and Candidates are the standing query's facility sets.
	Existing, Candidates []indoor.PartitionID
	// Timetable, when non-nil, drives door-schedule transitions. It must
	// have been created over the Tree's venue (the same *indoor.Venue);
	// New refuses one over any other.
	Timetable *temporal.Timetable
	// ClockStart is the simulated time-of-day at tick zero.
	ClockStart time.Duration
	// Metrics, when non-nil, receives the engine's counters.
	Metrics *obs.Metrics
}

// row is one client's cached distance state for the era it was computed
// in and the position it was computed at.
//
// Invariant: at loc, nn is exact, and cand[k] is exact wherever it is
// below nn; at or above nn it may overstate the true distance (resolve
// skips doors that cannot beat nn). Only min(nn, cand[k]) — all that
// combine reads — is exact for every k. Anything that reuses cand across
// eras or reads it for another purpose must respect this. Once the client
// has moved from loc, the row is stale: its values are exact only for loc,
// and combine reads them as intervals around the stored values, of width
// the walker's drift since odo.
type row struct {
	valid bool
	loc   geom.Point
	part  indoor.PartitionID
	// odo is the walker's drift odometer (motion.Simulation.Odometer) at
	// loc. While the walker's odometer reads odo+w, each value combine
	// reads from the row lies within w of the stored one (see drift).
	odo float64
	// nn is the distance to the nearest existing facility (+Inf when the
	// query has none).
	nn float64
	// cand holds the distance to each candidate, indexed like
	// Config.Candidates, exact below nn (see the invariant above).
	cand []float64
}

// partSig is a partition's exact distance signature within one era: the
// partition's open doors (by base-venue ID, in era order) and, row-major,
// each door's distance to every query facility. Two eras in which a
// partition has equal signatures induce identical point-to-facility
// distances from anywhere in the partition, because any such distance is
// min over the partition's doors of (in-partition offset + the door's
// facility distance) and the offsets depend only on geometry, which eras
// never change.
//
// The signature also carries what resolve needs to price a client from it
// alone. locs[j] is door j's location and stair the partition's
// StairLength, the offset to a door on another level; both are geometry,
// fixed by the door list. nnMin[j] and candMin[j] are the least distance
// from door j to an existing facility and to a candidate, and
// order[j*nc:(j+1)*nc] lists door j's candidate columns (0-based among the
// nc candidates) in ascending distance order. Those three are derived from
// dist. So equal compares doors and dist only.
type partSig struct {
	doors []indoor.DoorID
	dist  []float64

	locs  []geom.Point
	stair float64

	nnMin, candMin []float64
	order          []int32
}

// newPartSig wraps a signature's door list, its doors' locations, the
// partition's stair length and the row-major door × facility distances —
// ne existing facilities first, then the candidates — and derives the
// per-door minima and candidate orders.
func newPartSig(doors []indoor.DoorID, locs []geom.Point, stair float64, dist []float64, ne int) *partSig {
	n := len(doors)
	mins := make([]float64, 2*n)
	s := &partSig{doors: doors, dist: dist, locs: locs, stair: stair, nnMin: mins[:n], candMin: mins[n:]}
	if n == 0 {
		return s
	}
	nf := len(dist) / n
	nc := nf - ne
	s.order = make([]int32, n*nc)
	for j := range doors {
		rowj := dist[j*nf : (j+1)*nf]
		s.nnMin[j], s.candMin[j] = minOf(rowj[:ne]), minOf(rowj[ne:])
		cands, ord := rowj[ne:], s.order[j*nc:(j+1)*nc]
		for k := range ord {
			ord[k] = int32(k)
		}
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(cands[a], cands[b]) })
	}
	return s
}

// offset returns the in-partition distance from pt to door j, exactly as
// Venue.PointDoorDist computes it: the stair length to a door on another
// level, the Euclidean distance otherwise.
func (s *partSig) offset(pt geom.Point, j int) float64 {
	if l := s.locs[j]; l.Level == pt.Level {
		return pt.Dist(l)
	}
	return s.stair
}

// bound returns a lower bound on offset(pt, j) that needs no square root:
// the larger of |Δx| and |Δy| on the door's level, the exact stair length
// across levels. It is never above the offset. Hypot rounds
// max·√(1+(min/max)²), whose rounded root is at least 1, and it starts
// from the same rounded differences.
func (s *partSig) bound(pt geom.Point, j int) float64 {
	l := s.locs[j]
	if l.Level != pt.Level {
		return s.stair
	}
	b := math.Abs(pt.X - l.X)
	if dy := math.Abs(pt.Y - l.Y); dy > b {
		b = dy
	}
	return b
}

// minOf returns the least element of xs, +Inf when xs is empty.
func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func (a *partSig) equal(b *partSig) bool {
	if len(a.doors) != len(b.doors) || len(a.dist) != len(b.dist) {
		return false
	}
	for i, d := range a.doors {
		if d != b.doors[i] {
			return false
		}
	}
	for i, d := range a.dist {
		if d != b.dist[i] {
			return false
		}
	}
	return true
}

// era is one constant-topology stretch of simulated time: the (possibly
// snapshot) venue, its tree, the era→base door translation, and the era's
// memoized partition signatures.
type era struct {
	venue    *indoor.Venue
	tree     *vip.Tree
	baseDoor []indoor.DoorID      // era door → base door, built once per era
	mask     []bool               // base-venue per-door open flags; nil without a timetable
	facs     []indoor.PartitionID // existing facilities first, then candidates
	ne       int                  // number of existing facilities in facs

	// sigs holds the signatures computed so far, indexed by partition ID;
	// nil where the era has not signed the partition.
	sigs []*partSig
}

// signature returns the partition's memoized signature, computing it on
// this goroutine if the era has not signed it yet.
func (er *era) signature(p indoor.PartitionID) *partSig {
	if s := er.sigs[p]; s != nil {
		return s
	}
	s := er.compute(p)
	er.sigs[p] = s
	return s
}

// compute derives the partition's distance signature without touching the
// memo, so any number of goroutines may call it at once on one era. Cell
// (j, f) is Explorer.DoorToPartition(j, f): door j's least distance to a
// door of f, read from door j's own row, and 0 when f is p itself. The
// explorer it walks the tree with lives only for this call: resolve works
// from the signature alone, and a kept explorer would only retain its
// memoized distance vectors.
func (er *era) compute(p indoor.PartitionID) *partSig {
	e := er.tree.NewExplorer(p)
	doors := e.SrcDoors()
	sigDoors := make([]indoor.DoorID, len(doors))
	locs := make([]geom.Point, len(doors))
	dist := make([]float64, 0, len(doors)*len(er.facs))
	// Translate the era's door IDs back to base IDs so signatures from
	// different eras are comparable. The era venue's doors are the base
	// venue's open doors in base order, so equal base-ID lists imply the
	// same door locations in the same row order.
	for i, d := range doors {
		sigDoors[i] = er.baseDoor[d]
		locs[i] = er.venue.Door(d).Loc
	}
	for j := range doors {
		for _, f := range er.facs {
			dist = append(dist, e.DoorToPartition(j, f))
		}
	}
	return newPartSig(sigDoors, locs, er.venue.Partition(p).StairLength, dist, er.ne)
}

// coldParts appends to dst the partition of each client that the era has
// not signed yet: one memo load per client.
func (er *era) coldParts(dst []indoor.PartitionID, clients []core.Client) []indoor.PartitionID {
	for i := range clients {
		if p := clients[i].Part; er.sigs[p] == nil {
			dst = append(dst, p)
		}
	}
	return dst
}

// sign memoizes the signature of every partition in parts, which the era
// has not signed yet, and returns how many it computed. It sorts parts and
// drops repeats in place.
//
// Signatures are independent of one another, so sign fans them out over
// up to runtime.GOMAXPROCS(0) goroutines, the calling one included; with
// one partition or one core it spawns none. Each takes the next partition
// in ascending ID order and derives it with compute, on its own explorer
// over the shared, immutable tree, so every signature is bit for bit the
// one a single goroutine derives. The memo is written on the calling
// goroutine after every worker has joined. A worker's panic (a paged
// tree's failed page read panics with a faults.ErrCorruptIndex error) is
// recovered in the worker and re-raised here once all have joined, so no
// goroutine outlives the call and a caller can recover the panic as it
// would a serial one.
func (er *era) sign(parts []indoor.PartitionID) int {
	if len(parts) == 0 {
		return 0
	}
	slices.Sort(parts)
	parts = slices.Compact(parts)
	workers := min(runtime.GOMAXPROCS(0), len(parts))
	sigs := make([]*partSig, len(parts))
	failures := make([]any, workers)
	var next atomic.Int64
	work := func() (failure any) {
		defer func() { failure = recover() }()
		for {
			i := int(next.Add(1) - 1)
			if i >= len(parts) {
				return
			}
			sigs[i] = er.compute(parts[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			failures[w] = work()
		}()
	}
	failures[0] = work()
	wg.Wait()
	for i, s := range sigs {
		if s != nil {
			er.sigs[parts[i]] = s
		}
	}
	for _, v := range failures {
		if v != nil {
			panic(v)
		}
	}
	return len(parts)
}

// reverseDoor returns the era→base door translation of doorMap over an
// era venue with n doors.
func reverseDoor(doorMap temporal.DoorMap, n int) []indoor.DoorID {
	rev := make([]indoor.DoorID, n)
	for base, ed := range doorMap {
		if ed != indoor.NoDoor {
			rev[ed] = indoor.DoorID(base)
		}
	}
	return rev
}

// Engine maintains a standing IFLS answer. Single-goroutine; see the
// package documentation.
type Engine struct {
	sim        *motion.Simulation
	tt         *temporal.Timetable
	baseVenue  *indoor.Venue
	baseTree   *vip.Tree
	existing   []indoor.PartitionID
	candidates []indoor.PartitionID
	m          *obs.Metrics

	era   *era
	rows  []row
	clock time.Duration
	tick  int64

	last core.Result
	// bounds and offsets are resolve's per-door scratch: the door bounds
	// and the exact offsets computed so far (-1 where none was needed).
	bounds, offsets []float64

	// legMetric records whether the venue prices walks between doors the
	// way walkers walk them (see legMetric); drift bounds need it.
	legMetric bool
	// The tick's drift state, indexed like rows: the snapshot, which rows
	// are stale (moved, kept on a bound), each stale row's slack (its
	// padded drift), and the stale rows' indices.
	snap     []core.Client
	stale    []bool
	slack    []float64
	staleIdx []int32
	// combine's scratch, one column per value it folds: column 0 is the
	// status quo (nn), column k+1 candidate k (min(nn, cand[k])). known is
	// the maximum over rows whose value is exact, lower and upper the
	// maxima of the stale rows' bounds.
	known, lower, upper []float64
	order               []int32
	contenders          []contender
	// settled counts the stale rows combine resolved this tick.
	settled int
	// cold is the scratch list of partitions to sign (era.sign).
	cold []indoor.PartitionID

	subs   map[int]func(Event)
	nextID int

	stats Stats
}

// Stats are the engine's lifetime counters (also mirrored into the
// configured obs.Metrics).
type Stats struct {
	// Ticks counts Tick calls; Transitions the subset that crossed a
	// door-schedule boundary and rebuilt the topology era.
	Ticks, Transitions int64
	// Resolved, Reused and Carried total the per-tick client row
	// recomputes, exact reuses and rows kept on a drift bound (see
	// Event); Invalidated totals rows discarded by transitions.
	Resolved, Reused, Carried, Invalidated int64
	// AnswerChanges counts ticks whose result differed from the previous.
	AnswerChanges int64
	// Signed totals the signatures ticks computed (see Event); New's
	// initial signatures are not counted, as its resolves are not.
	Signed int64
}

// New builds an engine and computes the initial answer for the
// simulation's starting snapshot at Config.ClockStart.
func New(cfg Config) (*Engine, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("continuous: nil tree")
	}
	if cfg.Sim == nil {
		return nil, fmt.Errorf("continuous: nil simulation")
	}
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("continuous: no candidate locations")
	}
	if cfg.Sim.Venue() != cfg.Tree.Venue() {
		return nil, fmt.Errorf("continuous: simulation is not over the tree's venue %q", cfg.Tree.Venue().Name)
	}
	if cfg.Timetable != nil && cfg.Timetable.Venue() != cfg.Tree.Venue() {
		return nil, fmt.Errorf("continuous: timetable is over venue %q, not the tree's venue %q",
			cfg.Timetable.Venue().Name, cfg.Tree.Venue().Name)
	}
	e := &Engine{
		sim:        cfg.Sim,
		tt:         cfg.Timetable,
		baseVenue:  cfg.Tree.Venue(),
		baseTree:   cfg.Tree,
		existing:   append([]indoor.PartitionID(nil), cfg.Existing...),
		candidates: append([]indoor.PartitionID(nil), cfg.Candidates...),
		m:          cfg.Metrics,
		clock:      cfg.ClockStart,
		subs:       make(map[int]func(Event)),
		legMetric:  legMetric(cfg.Tree.Venue()),
	}
	n := e.baseVenue.NumPartitions()
	for _, f := range append(append([]indoor.PartitionID(nil), e.existing...), e.candidates...) {
		if int(f) < 0 || int(f) >= n {
			return nil, fmt.Errorf("continuous: facility partition %d out of range [0,%d)", f, n)
		}
	}
	er, err := e.buildEra(e.clock)
	if err != nil {
		return nil, err
	}
	e.era = er
	snap := e.sim.Snapshot()
	e.cold = er.coldParts(e.cold, snap)
	er.sign(e.cold)
	e.rows = make([]row, len(snap))
	e.stale, e.slack = make([]bool, len(snap)), make([]float64, len(snap))
	cols := 1 + len(e.candidates)
	e.known, e.lower, e.upper = make([]float64, cols), make([]float64, cols), make([]float64, cols)
	e.order = make([]int32, len(e.candidates))
	for i := range snap {
		e.resolve(&e.rows[i], snap[i])
		e.rows[i].odo = e.sim.Odometer(i)
	}
	e.snap = snap
	e.last = e.combine()
	return e, nil
}

// legMetric reports whether v prices the walk between any two doors of a
// partition as motion prices a walker's leg (Venue.PointDoorDist): the
// straight line between doors on one level, the stair length across
// levels. Only a stairwell with two doors on one level, which
// Venue.IntraDoorDist prices at least a stair length apart, breaks it.
// Drift bounds need it (see drift).
func legMetric(v *indoor.Venue) bool {
	for pi := range v.Partitions {
		p := &v.Partitions[pi]
		for i, a := range p.Doors {
			for _, b := range p.Doors[i+1:] {
				la, lb := v.Door(a).Loc, v.Door(b).Loc
				if la.Level == lb.Level && v.IntraDoorDist(p.ID, a, b) != la.Dist(lb) {
					return false
				}
			}
		}
	}
	return true
}

// facs returns the combined facility list signatures are computed over.
func (e *Engine) facs() []indoor.PartitionID {
	out := make([]indoor.PartitionID, 0, len(e.existing)+len(e.candidates))
	out = append(out, e.existing...)
	return append(out, e.candidates...)
}

// buildEra materializes the topology era for time-of-day t. With no
// timetable, or when every door is open, the base venue and tree are
// reused; otherwise the timetable snapshot is indexed with a fresh tree
// built with the base tree's options.
func (e *Engine) buildEra(t time.Duration) (*era, error) {
	er := &era{
		facs: e.facs(),
		ne:   len(e.existing),
		sigs: make([]*partSig, e.baseVenue.NumPartitions()),
	}
	if e.tt != nil {
		er.mask = e.tt.Mask(t)
	}
	if !slices.Contains(er.mask, false) {
		er.venue, er.tree = e.baseVenue, e.baseTree
		er.baseDoor = identityDoors(e.baseVenue.NumDoors())
		return er, nil
	}
	venue, doorMap, err := e.tt.Snapshot(t)
	if err != nil {
		return nil, fmt.Errorf("continuous: materializing era at %v: %w", t, err)
	}
	tree, err := vip.Build(venue, e.baseTree.Options())
	if err != nil {
		return nil, fmt.Errorf("continuous: indexing era at %v: %w", t, err)
	}
	er.venue, er.tree = venue, tree
	er.baseDoor = reverseDoor(doorMap, venue.NumDoors())
	return er, nil
}

func identityDoors(n int) []indoor.DoorID {
	m := make([]indoor.DoorID, n)
	for i := range m {
		m[i] = indoor.DoorID(i)
	}
	return m
}

// resolve recomputes one client's distance row against the current era,
// from the partition's memoized signature alone: dist(x, f) = min over the
// partition's doors j of o_j(x) + D[j][f], where o_j is the in-partition
// offset Venue.PointDoorDist gives. This is bit-identical to a direct
// per-facility Explorer.PointToPartition — rounded addition is monotone,
// so the min distributes over it — but costs a loop over the doors per
// client instead of a tree walk per (client, facility); the matrix is
// paid for once per (era, occupied partition) and is the same one
// transition() compares across eras.
//
// The same monotonicity lets resolve skip most offsets. Every door gets a
// bound b_j ≤ o_j (partSig.bound: max(|Δx|, |Δy|), or the exact stair
// length across levels), and o_j, a square root, is computed only for a
// door that the bound cannot rule out:
//
//   - nn = min_j (o_j + nnMin_j). A door with b_j + nnMin_j ≥ nn has
//     o_j + nnMin_j ≥ nn and cannot lower it. nn starts from the door of
//     least b_j + nnMin_j, so few doors survive.
//   - A door with b_j + candMin_j ≥ nn can only give candidates distances
//     at or above nn, which combine never reads through min(nn, cand[k]),
//     so the candidate pass skips it. A surviving door's candidates are
//     read in ascending distance order, and the scan stops at the first
//     o_j + D[j][k] ≥ nn.
//
// Skipped doors and dropped entries all lie at or above nn, so nn keeps
// its bits and cand keeps the row invariant (exact below nn).
func (e *Engine) resolve(r *row, c core.Client) {
	sig := e.era.signature(c.Part)
	nf := len(e.era.facs)
	ne := len(e.existing)
	nc := nf - ne
	if r.cand == nil {
		r.cand = make([]float64, len(e.candidates))
	}
	n, pt := len(sig.doors), c.Loc
	if cap(e.bounds) < n {
		e.bounds, e.offsets = make([]float64, n), make([]float64, n)
	}
	bounds, offsets := e.bounds[:n], e.offsets[:n]
	seed, seedLB := -1, math.Inf(1)
	for j := range bounds {
		bounds[j] = sig.bound(pt, j)
		offsets[j] = -1
		if lb := bounds[j] + sig.nnMin[j]; lb < seedLB {
			seed, seedLB = j, lb
		}
	}
	r.nn = math.Inf(1)
	// A facility in the client's own partition is at distance 0
	// (PointToPartition's source special case); the signature stores zero
	// rows for it, which the door scan would inflate by the door offset.
	if slices.Contains(e.existing, c.Part) {
		r.nn = 0
	} else if seed >= 0 {
		offsets[seed] = sig.offset(pt, seed)
		if d := offsets[seed] + sig.nnMin[seed]; d < r.nn {
			r.nn = d
		}
		for j, b := range bounds {
			if b+sig.nnMin[j] >= r.nn {
				continue
			}
			if offsets[j] < 0 {
				offsets[j] = sig.offset(pt, j)
			}
			if d := offsets[j] + sig.nnMin[j]; d < r.nn {
				r.nn = d
			}
		}
	}
	for k := range r.cand {
		r.cand[k] = math.Inf(1)
	}
	for j, b := range bounds {
		if b+sig.candMin[j] >= r.nn {
			continue
		}
		oj := offsets[j]
		if oj < 0 {
			oj = sig.offset(pt, j)
		}
		cands := sig.dist[j*nf+ne : (j+1)*nf]
		for _, k := range sig.order[j*nc : (j+1)*nc] {
			d := oj + cands[k]
			if d >= r.nn {
				break
			}
			if d < r.cand[k] {
				r.cand[k] = d
			}
		}
	}
	for k, f := range e.candidates {
		if f == c.Part {
			r.cand[k] = 0
		}
	}
	r.loc, r.part = c.Loc, c.Part
	r.valid = true
}

// driftRel and driftAbs pad a stale row's drift for rounding (see drift).
const (
	driftRel = 0x1p-26
	driftAbs = 1e-9
)

// drift returns the slack of a row resolved at odometer reading then, now
// that the walker's odometer reads now: every value combine reads from the
// row lies within the stored value ± slack, widened by driftRel of itself
// (lowerOf, upperOf).
//
// Why: on the base topology a value the row holds is a min over
// facilities of g_P(x) = min over the doors j of the client's partition P
// of offset_j(x) + D[j][f]. For any two points x of P and y of Q,
// g_Q(y) ≤ g_P(x) + d, where d is the indoor distance between them
// (d2d.Graph.PointToPoint): take the doors the shortest path leaves P and
// enters Q by, and the door of P that attains g_P(x); the door graph
// prices the step between two doors of P at most at the two offsets via x
// (legMetric), so D obeys the triangle inequality through x. So the values
// are 1-Lipschitz in the indoor distance, which the walker's odometer
// bounds between its reported positions (motion.Simulation.Odometer): they
// move by at most now−then. The padding covers rounding: of the odometer's
// sum (driftRel of its reading), of the D cells, which obey the triangle
// inequality only to a few ulps (driftRel of the value), and of
// interpolated coordinates (driftAbs, a nanometre).
func drift(then, now float64) float64 {
	return (now-then+driftRel*now)*(1+driftRel) + driftAbs
}

func upperOf(v, slack float64) float64 { return v*(1+driftRel) + slack }
func lowerOf(v, slack float64) float64 { return v*(1-driftRel) - slack }

// value returns what combine reads from r in column c: nn for column 0,
// min(nn, cand[c-1]) for candidate c-1.
func (r *row) value(c int) float64 {
	if c > 0 && r.cand[c-1] < r.nn {
		return r.cand[c-1]
	}
	return r.nn
}

// contender is a stale row whose upper bound in the column being settled
// lies above everything the column is known to reach.
type contender struct {
	hi float64
	i  int32
}

// combine folds the rows into the exact MinMax result, reproducing the
// batch solver's semantics: the status quo is the maximum nearest-existing
// distance; a candidate's objective is the maximum over clients of
// min(nearest-existing, candidate distance); the answer is the
// lowest-objective candidate, ties broken to the lowest candidate
// partition ID; Found requires a strict improvement over the status quo.
//
// Stale rows (Tick) enter as intervals, and combine resolves only those
// that can set the answer. It settles the status quo first, then visits
// the candidates in ascending upper bound: one whose lower bound cannot
// win against the best so far (objective, then partition ID) is skipped;
// otherwise its maximum is settled, with an early stop once what is known
// of it already loses. The result is the one a combine over fully
// resolved rows returns, bit for bit: every maximum it reads is attained
// by an exact row, and every skipped row or candidate is bounded out.
// Bookkeeping is one O(|C|·|Fn|) pass plus one pass over the stale rows
// per settled column.
func (e *Engine) combine() core.Result {
	if len(e.rows) == 0 {
		return core.Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN()}
	}
	known, lower, upper := e.known, e.lower, e.upper
	clear(known)
	clear(lower)
	clear(upper)
	for i := range e.rows {
		r := &e.rows[i]
		if !e.stale[i] {
			if r.nn > known[0] {
				known[0] = r.nn
			}
			for k, d := range r.cand {
				if r.nn < d {
					d = r.nn
				}
				if d > known[k+1] {
					known[k+1] = d
				}
			}
			continue
		}
		s := e.slack[i]
		fold := func(c int, v float64) {
			if lo := lowerOf(v, s); lo > lower[c] {
				lower[c] = lo
			}
			if hi := upperOf(v, s); hi > upper[c] {
				upper[c] = hi
			}
		}
		fold(0, r.nn)
		for k, d := range r.cand {
			if r.nn < d {
				d = r.nn
			}
			fold(k+1, d)
		}
	}
	for c, lo := range lower {
		// +Inf is exact even on a stale row: a walker never reaches a
		// facility it could not reach before.
		if math.IsInf(lo, 1) {
			known[c] = lo
		}
	}

	e.settle(0, nil)
	statusQuo := known[0]

	order := e.order
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ua, ub := max(known[a+1], upper[a+1]), max(known[b+1], upper[b+1])
		if c := cmp.Compare(ua, ub); c != 0 {
			return c
		}
		return cmp.Compare(e.candidates[a], e.candidates[b])
	})
	best := indoor.NoPartition
	bestObj := math.Inf(1)
	wins := func(obj float64, f indoor.PartitionID) bool {
		return obj < bestObj || (obj == bestObj && f < best)
	}
	for _, k := range order {
		f := e.candidates[k]
		if !wins(max(known[k+1], lower[k+1]), f) {
			continue
		}
		if e.settle(int(k)+1, func(obj float64) bool { return wins(obj, f) }) && wins(known[k+1], f) {
			bestObj, best = known[k+1], f
		}
	}
	if best == indoor.NoPartition || bestObj >= statusQuo {
		return core.Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN()}
	}
	return core.Result{Found: true, Answer: best, Objective: bestObj}
}

// settle resolves stale rows until known[c] is column c's exact maximum,
// and reports true. It resolves the contenders, the stale rows whose upper
// bound exceeds both known[c] and lower[c], in descending upper bound,
// until the next one's upper bound is at most known[c]. Every other stale
// row lies at or below lower[c], and so at or below the final known[c]:
// the row that set lower[c] is a contender, and it is either resolved or
// bounded by known[c]. When wins is non-nil and known[c] no longer wins,
// settle stops early and reports false: the column's maximum, at least
// known[c], cannot win either.
func (e *Engine) settle(c int, wins func(float64) bool) bool {
	floor := max(e.known[c], e.lower[c])
	cs := e.contenders[:0]
	for _, i := range e.staleIdx {
		if !e.stale[i] {
			continue
		}
		if hi := upperOf(e.rows[i].value(c), e.slack[i]); hi > floor {
			cs = append(cs, contender{hi, i})
		}
	}
	e.contenders = cs
	slices.SortFunc(cs, func(a, b contender) int {
		return cmp.Or(cmp.Compare(b.hi, a.hi), cmp.Compare(a.i, b.i))
	})
	for _, x := range cs {
		if x.hi <= e.known[c] {
			break
		}
		if wins != nil && !wins(e.known[c]) {
			return false
		}
		e.settleRow(int(x.i))
	}
	return true
}

// settleRow resolves stale row i at the tick's position and folds its
// exact values into known.
func (e *Engine) settleRow(i int) {
	r := &e.rows[i]
	e.resolve(r, e.snap[i])
	r.odo = e.sim.Odometer(i)
	e.stale[i] = false
	e.settled++
	for c := range e.known {
		if v := r.value(c); v > e.known[c] {
			e.known[c] = v
		}
	}
}

// transition crosses into the era at the engine's current clock,
// invalidating exactly the cached rows whose partition's distance state
// changed. It signs, on the new era, every partition a valid row or the
// tick's snapshot is in, across cores (era.sign), so the rest of the tick
// finds them all signed. Returns the number of rows invalidated and of
// signatures computed.
func (e *Engine) transition(snap []core.Client) (invalidated, signed int, err error) {
	next, err := e.buildEra(e.clock)
	if err != nil {
		return 0, 0, err
	}
	cold := e.cold[:0]
	for i := range e.rows {
		if r := &e.rows[i]; r.valid && next.sigs[r.part] == nil {
			cold = append(cold, r.part)
		}
	}
	e.cold = next.coldParts(cold, snap)
	signed = next.sign(e.cold)
	// Group the valid rows by partition, then compare each occupied
	// partition's signature across the eras. Signatures on the old era are
	// memoized; those on the new era are the ones the recomputes below
	// will use.
	changed := make(map[indoor.PartitionID]bool)
	for i := range e.rows {
		r := &e.rows[i]
		if !r.valid {
			continue
		}
		if _, seen := changed[r.part]; !seen {
			changed[r.part] = !e.era.signature(r.part).equal(next.signature(r.part))
		}
	}
	for i := range e.rows {
		r := &e.rows[i]
		if r.valid && changed[r.part] {
			r.valid = false
			invalidated++
		}
	}
	e.era = next
	return invalidated, signed, nil
}

// Tick advances the simulation (and the simulated clock) by dt and brings
// the maintained answer up to date: door-schedule transitions rebuild the
// topology era and invalidate affected rows, moved clients' rows are
// resolved or, where drift bounds apply, carried until combine needs them,
// everything else is reused. Subscribers receive an EventTick (and,
// when the result changed, an EventAnswerChanged) before Tick returns.
//
// A transition whose snapshot disconnects the venue fails; the engine's
// clock and simulation have advanced, but the maintained answer and rows
// are untouched, and the next successful Tick recovers by recomputing
// whatever the failed era left stale.
func (e *Engine) Tick(dt time.Duration) (core.Result, error) {
	if dt <= 0 {
		return core.Result{}, fmt.Errorf("continuous: non-positive tick %v", dt)
	}
	e.sim.Step(dt)
	e.clock += dt
	e.tick++
	e.stats.Ticks++

	snap := e.sim.Snapshot()
	invalidated, signed, transitioned := 0, 0, false
	if e.tt != nil {
		mask := e.tt.Mask(e.clock)
		if !slices.Equal(mask, e.era.mask) {
			n, s, err := e.transition(snap)
			if err != nil {
				return core.Result{}, err
			}
			invalidated, signed, transitioned = n, s, true
			e.stats.Transitions++
			e.stats.Invalidated += int64(n)
			if e.m != nil {
				e.m.ContinuousInvalidation(n)
			}
		}
	}

	// Drift bounds need the walkers' metric: the base topology, which
	// walkers walk even through closed doors. A transition tick resolves
	// every moved row on the new era.
	bounded := e.legMetric && !transitioned && e.era.venue == e.baseVenue
	// Sign the partitions walkers entered before resolving any row, so
	// their signatures are computed across cores. A carried row needs its
	// partition's signature once combine resolves it, and paying for it
	// here keeps a tick's cost and the memo's growth independent of which
	// rows bounds carry.
	e.cold = e.era.coldParts(e.cold[:0], snap)
	signed += e.era.sign(e.cold)
	resolved, reused := 0, 0
	e.staleIdx = e.staleIdx[:0]
	for i := range snap {
		r := &e.rows[i]
		e.stale[i] = false
		if r.valid && r.loc == snap[i].Loc && r.part == snap[i].Part {
			reused++
			continue
		}
		odo := e.sim.Odometer(i)
		if s := drift(r.odo, odo); bounded && r.valid && s < math.Inf(1) {
			e.stale[i] = true
			e.slack[i] = s
			e.staleIdx = append(e.staleIdx, int32(i))
			continue
		}
		e.resolve(r, snap[i])
		r.odo = odo
		resolved++
	}
	e.snap = snap
	e.settled = 0
	res := e.combine()
	resolved += e.settled
	carried := len(e.staleIdx) - e.settled
	e.stats.Resolved += int64(resolved)
	e.stats.Reused += int64(reused)
	e.stats.Carried += int64(carried)
	e.stats.Signed += int64(signed)

	changedAnswer := !sameResult(res, e.last)
	e.last = res
	if changedAnswer {
		e.stats.AnswerChanges++
	}
	if e.m != nil {
		e.m.ContinuousTick(resolved, reused, carried, signed)
		if changedAnswer {
			e.m.ContinuousAnswerChange()
		}
	}
	ev := Event{
		Kind: EventTick, Tick: e.tick, At: e.clock, Result: res,
		Resolved: resolved, Reused: reused, Carried: carried, Invalidated: invalidated,
		Signed: signed,
	}
	e.publish(ev)
	if changedAnswer {
		ev.Kind = EventAnswerChanged
		e.publish(ev)
	}
	return res, nil
}

// sameResult compares the caller-visible answer fields (Found, Answer,
// Objective), treating two NaN objectives as equal.
func sameResult(a, b core.Result) bool {
	if a.Found != b.Found || a.Answer != b.Answer {
		return false
	}
	if math.IsNaN(a.Objective) && math.IsNaN(b.Objective) {
		return true
	}
	return a.Objective == b.Objective
}

func (e *Engine) publish(ev Event) {
	for _, fn := range e.subs {
		fn(ev)
	}
}

// Subscribe registers fn for event delivery. Events are delivered
// synchronously inside Tick, in undefined order across subscribers; fn
// must not call back into the engine. The returned cancel removes the
// subscription.
func (e *Engine) Subscribe(fn func(Event)) (cancel func()) {
	id := e.nextID
	e.nextID++
	e.subs[id] = fn
	return func() { delete(e.subs, id) }
}

// Result returns the maintained answer for the latest snapshot.
func (e *Engine) Result() core.Result { return e.last }

// Clock returns the simulated time-of-day of the latest snapshot.
func (e *Engine) Clock() time.Duration { return e.clock }

// Ticks returns the number of Tick calls so far.
func (e *Engine) Ticks() int64 { return e.tick }

// Stats returns the engine's lifetime counters.
func (e *Engine) Stats() Stats { return e.stats }

// Venue returns the current era's venue (the base venue, or the
// timetable snapshot after a transition). Partition IDs always match the
// base venue; door IDs are era-local.
func (e *Engine) Venue() *indoor.Venue { return e.era.venue }

// Tree returns the current era's VIP-tree — the index a from-scratch
// solve of the current snapshot runs against (the differential tests'
// oracle side).
func (e *Engine) Tree() *vip.Tree { return e.era.tree }

// Query materializes the standing query over the latest snapshot, ready
// for a from-scratch core.Exec against Tree.
func (e *Engine) Query() *core.Query {
	return &core.Query{
		Existing:   e.existing,
		Candidates: e.candidates,
		Clients:    e.sim.Snapshot(),
	}
}
