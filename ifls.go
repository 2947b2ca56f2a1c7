// Package ifls is a Go library for Indoor Facility Location Selection
// queries, reproducing "An Efficient Approach for Indoor Facility Location
// Selection" (Rayhan, Hashem, Cheema, Lu, Ali — EDBT 2023).
//
// Given an indoor venue (partitions connected by doors and stairs), a set of
// clients, a set of existing facilities, and a set of candidate locations,
// an IFLS query returns the candidate that minimizes the maximum indoor
// distance of any client to its nearest facility (the MinMax objective);
// MinDist (minimum total distance) and MaxSum (maximum captured clients)
// variants are also provided.
//
// # Building a venue
//
// Model the venue with a Builder: add rooms, corridors, and stairs, connect
// them with doors, and Build. Venues can also be loaded from JSON
// (LoadVenue) or generated (SampleVenue reproduces the four venues of the
// paper's evaluation).
//
//	b := ifls.NewBuilder("office")
//	hall := b.AddCorridor(ifls.R(0, 0, 30, 4, 0), "hall")
//	cafe := b.AddRoom(ifls.R(0, 4, 10, 14, 0), "cafe", "dining")
//	b.AddDoor(ifls.Pt(5, 4, 0), cafe, hall)
//	...
//	venue, err := b.Build()
//
// # Querying
//
// Build an Index (a VIP-tree) once per venue, then run queries against it
// through its one entry point, Index.Query:
//
//	ix, _ := ifls.NewIndex(venue)
//	a, err := ix.Query(ctx, &ifls.Query{
//		Existing:   []ifls.PartitionID{cafe},
//		Candidates: candidates,
//		Clients:    clients,
//	}, ifls.QueryOptions{})
//	if err == nil && a.MinMax.Found {
//		fmt.Println("place the new facility in", a.MinMax.Answer)
//	}
//
// QueryOptions.Objective selects the algorithm: MinMax (the zero value) is
// the paper's efficient approach; Baseline is the modified MinMax
// algorithm the paper compares against; MinDist and MaxSum are the
// Section 7 extensions; TopK and Multi rank K candidates or greedily place
// K facilities. Index.QueryAt answers MinMax at a time of day with doors
// closed on schedule. Session.Query answers the same queries over caches
// that persist across calls. The Index also answers plain indoor distance
// and nearest-facility queries.
//
// # Errors, cancellation, and failure containment
//
// Query validates its input and returns errors from a small fixed taxonomy
// — ErrInvalidQuery, ErrMalformedVenue, ErrCancelled, ErrInvalidWorkload,
// ErrUnknownObjective, ErrInvalidOptions, ErrSolverPanic (and, from the
// serving and index-file layers, ErrOverloaded, ErrDeadlineExceeded,
// ErrCorruptIndex) — classified with errors.Is:
//
//	a, err := ix.Query(ctx, q, ifls.QueryOptions{})
//	switch {
//	case errors.Is(err, ifls.ErrCancelled):    // ctx expired; retry later
//	case errors.Is(err, ifls.ErrInvalidQuery): // reject the request
//	case errors.Is(err, ifls.ErrSolverPanic):  // contained crash; report
//	}
//
// A cancelled context stops the solver at its next checkpoint and the error
// also satisfies errors.Is(err, context.Canceled) (or DeadlineExceeded).
// Internal panics are recovered at the API boundary and contained to the
// one query that triggered them. NewIndexContext gives index construction
// the same cancellation contract.
package ifls

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/continuous"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// The error taxonomy, re-exported from the internal faults package. Every
// error returned by this package wraps exactly one of these sentinels;
// classify with errors.Is.
var (
	// ErrInvalidQuery marks malformed query input: unknown partition IDs,
	// non-finite or cross-level client coordinates, clients outside their
	// declared partition, an empty candidate set, or a nil query.
	ErrInvalidQuery = faults.ErrInvalidQuery
	// ErrMalformedVenue marks venues that fail structural validation.
	ErrMalformedVenue = faults.ErrMalformedVenue
	// ErrCancelled marks early returns forced by context cancellation or
	// deadline expiry; the context's own error is in the chain too.
	ErrCancelled = faults.ErrCancelled
	// ErrInvalidWorkload marks impossible workload-generation requests.
	ErrInvalidWorkload = faults.ErrInvalidWorkload
	// ErrUnknownObjective marks requests naming an unknown objective or
	// solver.
	ErrUnknownObjective = faults.ErrUnknownObjective
	// ErrInvalidOptions marks unusable configuration, such as index fanouts
	// below the structural minimum.
	ErrInvalidOptions = faults.ErrInvalidOptions
	// ErrSolverPanic marks a panic recovered at the API boundary; the
	// failure was contained to the one query that triggered it.
	ErrSolverPanic = faults.ErrSolverPanic
)

// Core model types, re-exported from the internal packages.
type (
	// Venue is a complete indoor space: partitions connected by doors.
	Venue = indoor.Venue
	// Builder assembles and validates a Venue.
	Builder = indoor.Builder
	// Partition is one indoor space unit (room, corridor, or stairwell).
	Partition = indoor.Partition
	// Door connects two partitions at a point.
	Door = indoor.Door
	// PartitionID identifies a partition within its venue.
	PartitionID = indoor.PartitionID
	// DoorID identifies a door within its venue.
	DoorID = indoor.DoorID
	// Point is a located coordinate (x, y, level).
	Point = geom.Point
	// Rect is an axis-aligned rectangle on one level.
	Rect = geom.Rect
	// Client is a located query client.
	Client = core.Client
	// Query is an IFLS instance: existing facilities, candidate
	// locations, and clients.
	Query = core.Query
	// Result is a MinMax query outcome.
	Result = core.Result
	// ExtResult is a MinDist/MaxSum query outcome.
	ExtResult = core.ExtResult
	// Stats counts solver work (distance computations, prunes, ...).
	Stats = core.Stats
)

// NoPartition marks the absence of a partition.
const NoPartition = indoor.NoPartition

// NewBuilder starts a venue description.
func NewBuilder(name string) *Builder { return indoor.NewBuilder(name) }

// Pt constructs a Point.
func Pt(x, y float64, level int) Point { return geom.Pt(x, y, level) }

// R constructs a Rect from corner coordinates on a level.
func R(x0, y0, x1, y1 float64, level int) Rect { return geom.R(x0, y0, x1, y1, level) }

// LoadVenue reads a venue from its JSON representation and validates it.
func LoadVenue(r io.Reader) (*Venue, error) { return indoor.ReadJSON(r) }

// SampleVenue generates one of the paper's four evaluation venues by short
// name: "MC" (Melbourne Central), "CH" (Chadstone), "CPH" (Copenhagen
// Airport), or "MZB" (Menzies Building).
func SampleVenue(name string) (*Venue, error) { return venues.ByName(name) }

// SampleVenueNames lists the venue names SampleVenue accepts.
func SampleVenueNames() []string { return append([]string(nil), venues.Names...) }

// IndexOptions configure index construction.
type IndexOptions struct {
	// LeafFanout is the maximum number of partitions per index leaf
	// (default 8).
	LeafFanout int
	// NodeFanout is the maximum number of children per internal index
	// node (default 4).
	NodeFanout int
	// IPTree disables the VIP-tree's leaf-to-ancestor matrices, building
	// the smaller but slower IP-tree instead.
	IPTree bool
	// Workers bounds the goroutines used to fill the index's distance
	// matrices during construction. Zero uses all available cores; 1
	// forces the sequential path. The built index is identical for every
	// worker count (see ARCHITECTURE.md).
	Workers int
}

// Index is a queryable VIP-tree over one venue. Safe for concurrent reads.
type Index struct {
	venue *indoor.Venue
	tree  *vip.Tree
	// metrics, when set via WithMetrics, makes every Query record per-query
	// spans and aggregates. Nil (the default) keeps the solvers on their
	// unobserved paths.
	metrics *obs.Metrics
}

// NewIndex builds an Index with default options.
func NewIndex(v *Venue) (*Index, error) { return NewIndexWithOptions(v, IndexOptions{}) }

// NewIndexWithOptions builds an Index with explicit options.
func NewIndexWithOptions(v *Venue, opts IndexOptions) (*Index, error) {
	return NewIndexContext(context.Background(), v, opts)
}

// NewIndexContext is NewIndexWithOptions with cooperative cancellation:
// construction's dominant phase (one shortest-path expansion per door) polls
// the context once per door, so a cancel or deadline abandons the build
// promptly and returns an error wrapping ErrCancelled. A nil or empty venue
// yields ErrMalformedVenue; unusable fanouts yield ErrInvalidOptions.
func NewIndexContext(ctx context.Context, v *Venue, opts IndexOptions) (*Index, error) {
	o := vip.DefaultOptions()
	if opts.LeafFanout != 0 {
		o.LeafFanout = opts.LeafFanout
	}
	if opts.NodeFanout != 0 {
		o.NodeFanout = opts.NodeFanout
	}
	o.Vivid = !opts.IPTree
	o.Workers = opts.Workers
	t, err := vip.BuildContext(ctx, v, o)
	if err != nil {
		return nil, err
	}
	return &Index{venue: v, tree: t}, nil
}

// Venue returns the indexed venue.
func (ix *Index) Venue() *Venue { return ix.venue }

// LoadIndex restores an index previously written with Index.SavePaged,
// bound to the venue it was built from, fully materialized: every page is
// verified and every matrix resident before it returns. To open the file
// lazily through the page cache, use OpenIndexFile. Files in the retired
// monolithic (version 2) format are refused with ErrCorruptIndex.
func LoadIndex(r io.Reader, v *Venue) (*Index, error) {
	t, err := vip.Load(r, v)
	if err != nil {
		return nil, err
	}
	return &Index{venue: v, tree: t}, nil
}

// PagedSaveOptions configure Index.SavePaged.
type PagedSaveOptions struct {
	// PageSize is the page payload size in bytes. Zero selects the 64 KiB
	// default; any other value must be a positive multiple of 8.
	PageSize int
}

// SavePaged persists the index (structure and distance matrices) so a
// later process can reopen it without recomputing — the "indexed once
// offline" deployment the paper assumes. The venue is persisted separately
// with Venue.WriteJSON. The file holds the tree structure in a verified
// envelope and the distance matrices in fixed-size individually-checksummed
// pages. A process that reopens the file with OpenIndexFile is query-ready
// as soon as the structure is read — matrix pages fault in lazily — which
// turns restart time from proportional-to-matrix-heap into milliseconds;
// LoadIndex reads the same file eagerly.
func (ix *Index) SavePaged(w io.Writer, o PagedSaveOptions) error {
	return ix.tree.SavePaged(w, vip.PagedSaveOptions{PageSize: o.PageSize})
}

// PagedIndexOptions configure how OpenIndexFile serves a paged index file.
// The zero value is ready to use.
type PagedIndexOptions struct {
	// CacheBytes bounds the page cache. Zero selects the 64 MiB default;
	// negative removes the bound.
	CacheBytes int64
	// Metrics, when non-nil, receives page_cache_hits / page_cache_misses /
	// page_cache_evictions / pages_read counts from this index's cache.
	Metrics *Metrics
}

// OpenIndexFile opens an index file written by SavePaged lazily: the file
// opens through an LRU page cache sized by o and stays open for the life
// of the index — release it with Index.Close. The returned index answers
// queries identically to LoadIndex's; only residency and restart latency
// differ. Files in the retired monolithic (version 2) format are refused
// with ErrCorruptIndex.
func OpenIndexFile(path string, v *Venue, o PagedIndexOptions) (*Index, error) {
	po := vip.PagedOptions{CacheBytes: o.CacheBytes}
	if o.Metrics != nil {
		po.Metrics = o.Metrics
	}
	t, err := vip.OpenPagedFile(path, v, po)
	if err != nil {
		return nil, err
	}
	return &Index{venue: v, tree: t}, nil
}

// Close releases resources held by a paged index — the page cache and the
// underlying file. On a fully-resident index it is a no-op.
// Queries must not be in flight or issued after Close.
func (ix *Index) Close() error { return ix.tree.Close() }

// guard runs fn and converts any escaping panic into an ErrSolverPanic
// error, containing the failure to the calling query. Index.Query gets the
// same containment from batch.Execute; guard covers the paths that do not
// go through it.
func guard(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = faults.Recovered(p)
		}
	}()
	fn()
	return nil
}

// Objective selects what a query optimizes. The zero value is MinMax.
type Objective = core.Objective

// The query objectives.
const (
	// MinMax minimizes the maximum client-to-nearest-facility distance
	// with the paper's efficient approach (Algorithms 2 and 3).
	MinMax = core.ObjMinMax
	// Baseline answers MinMax with the modified MinMax algorithm
	// (Algorithm 1) the paper compares against.
	Baseline = core.ObjBaseline
	// MinDist minimizes the total client-to-nearest-facility distance
	// (Section 7).
	MinDist = core.ObjMinDist
	// MaxSum maximizes the number of clients that would switch to the new
	// facility (Section 7).
	MaxSum = core.ObjMaxSum
	// TopK ranks up to QueryOptions.K candidates with the smallest MinMax
	// objectives, ascending, each with its exact objective; candidates
	// that do not improve on the status quo are omitted.
	TopK = core.ObjTopK
	// Multi greedily selects QueryOptions.K candidates for K new
	// facilities: each round solves a single-facility MinMax query and
	// folds the winner into the existing set, stopping early when no
	// candidate improves. (Joint k-facility MinMax selection is NP-hard.)
	Multi = core.ObjMulti
)

// QueryOptions configure Index.Query and Session.Query. The zero value
// answers MinMax with the efficient approach.
type QueryOptions struct {
	// Objective selects what the query optimizes.
	Objective Objective
	// K is the ranking length for TopK and the facility count for Multi;
	// ignored otherwise.
	K int
}

// Answer is the outcome of one query: the field selected by the objective
// is populated — MinMax for MinMax and Baseline, Ext for MinDist and
// MaxSum, TopK for TopK, Multi for Multi — and the rest stay zero. A plain
// value owned by the caller.
type Answer = core.ExecResult

// RankedCandidate is one entry of a TopK answer.
type RankedCandidate = core.RankedCandidate

// MultiResult is the outcome of a Multi query.
type MultiResult = core.MultiResult

// Query answers one IFLS query against the index. It validates the query
// (ErrInvalidQuery), stops at the solver's next checkpoint when ctx is
// cancelled (ErrCancelled, with ctx's error also in the chain), and
// converts any internal panic into ErrSolverPanic instead of crashing the
// caller. On error the Answer is zero. Working memory comes from a shared
// pool, so concurrent queries on one Index are safe and cheap; when
// WithMetrics attached a sink, every query is recorded in it.
func (ix *Index) Query(ctx context.Context, q *Query, o QueryOptions) (Answer, error) {
	r := batch.Execute(ctx, ix.tree, batch.Query{Objective: o.Objective, K: o.K, Query: q}, ix.metrics)
	return r.ExecResult, r.Err
}

// QueryAt answers a MinMax query at time of day at: doors tt keeps closed
// at that time cannot be traversed. The computation runs exactly on the
// masked door graph (the index assumes static topology) with the
// brute-force MinMax oracle, so it costs one Dijkstra per door of each
// distinct client partition rather than the indexed solver's shared
// search; ties resolve to the lowest candidate ID, as in Query. Validation
// and panic containment are as in Query; the masked search has no
// checkpoints, so ctx is checked once, before it starts. A nil tt, or one
// not created over the indexed venue (NewTimetable), is rejected with
// ErrInvalidQuery. QueryAt queries are not recorded by WithMetrics.
func (ix *Index) QueryAt(ctx context.Context, tt *Timetable, at time.Duration, q *Query) (Result, error) {
	if err := ix.checkTimetable(tt); err != nil {
		return Result{}, err
	}
	if err := q.Validate(ix.venue); err != nil {
		return Result{}, err
	}
	if ctx != nil && ctx.Err() != nil {
		return Result{}, faults.Cancelled(ctx.Err())
	}
	var r Result
	if err := guard(func() { r = core.SolveBrute(ix.tree.Graph().Masked(tt.Mask(at)), q).Result }); err != nil {
		return Result{}, err
	}
	return r, nil
}

// Locate returns the partition containing a point, or NoPartition.
func (ix *Index) Locate(p Point) PartitionID { return ix.venue.PartitionAt(p) }

// ClientAt builds a Client at a point, locating its partition. It returns
// an error when the point is outside every partition.
func (ix *Index) ClientAt(id int32, p Point) (Client, error) {
	part := ix.venue.PartitionAt(p)
	if part == NoPartition {
		return Client{}, fmt.Errorf("ifls: point %v is outside venue %q", p, ix.venue.Name)
	}
	return Client{ID: id, Loc: p, Part: part}, nil
}

// Distance returns the exact indoor distance between two points. It returns
// an error when either point is outside the venue.
func (ix *Index) Distance(p, q Point) (float64, error) {
	pp := ix.venue.PartitionAt(p)
	qp := ix.venue.PartitionAt(q)
	if pp == NoPartition || qp == NoPartition {
		return 0, fmt.Errorf("ifls: point outside venue")
	}
	return ix.tree.DistPointToPoint(p, pp, q, qp), nil
}

// DistanceToPartition returns the exact indoor distance from a point to the
// nearest reachable point of a partition. It returns an error when the point
// is outside the venue, and one wrapping ErrInvalidQuery when target is not
// a partition of the venue.
func (ix *Index) DistanceToPartition(p Point, target PartitionID) (float64, error) {
	if !ix.knownPartitions(target) {
		return 0, fmt.Errorf("%w: unknown partition %d", ErrInvalidQuery, target)
	}
	pp := ix.venue.PartitionAt(p)
	if pp == NoPartition {
		return 0, fmt.Errorf("ifls: point %v outside venue", p)
	}
	return ix.tree.DistPointToPartition(p, pp, target), nil
}

// NearestFacility returns the facility partition nearest to a point and its
// distance, using the VIP-tree top-down search. facilities lists candidate
// partitions; ok is false when the set is empty, names a partition the venue
// does not have, or the point is outside the venue.
func (ix *Index) NearestFacility(p Point, facilities []PartitionID) (nearest PartitionID, dist float64, ok bool) {
	pp := ix.venue.PartitionAt(p)
	if pp == NoPartition || !ix.knownPartitions(facilities...) {
		return NoPartition, 0, false
	}
	fs := vip.NewFacilitySet(ix.venue, facilities)
	var buf [1]Neighbor
	nn := ix.tree.Nearest(p, pp, fs, 1, math.Inf(1), nil, buf[:0])
	if len(nn) == 0 {
		return NoPartition, 0, false
	}
	return nn[0].Facility, nn[0].Dist, true
}

// Route returns a shortest indoor route between two points: the sequence of
// waypoints (start, the doors crossed, end) and the total indoor distance.
// It returns an error when either point lies outside the venue. The first
// route from a door keeps that door's shortest-path tree for the life of
// the index, 12 bytes per venue door (SERVING.md, "Route memory").
func (ix *Index) Route(p, q Point) ([]Point, float64, error) {
	pp := ix.venue.PartitionAt(p)
	qp := ix.venue.PartitionAt(q)
	if pp == NoPartition || qp == NoPartition {
		return nil, 0, fmt.Errorf("ifls: point outside venue")
	}
	doors, dist := ix.tree.Graph().PointRoute(p, pp, q, qp)
	pts := make([]Point, 0, len(doors)+2)
	pts = append(pts, p)
	for _, d := range doors {
		pts = append(pts, ix.venue.Door(d).Loc)
	}
	pts = append(pts, q)
	return pts, dist, nil
}

// Session amortizes repeated queries on one index — the dynamic-crowd
// scenario where the optimal location is recomputed as clients move. The
// venue-dependent distance vectors computed by each query are retained and
// reused by later ones. Not safe for concurrent use.
type Session struct{ s *core.Session }

// NewSession creates a query session over the index.
func (ix *Index) NewSession() *Session { return &Session{s: core.NewSession(ix.tree)} }

// Query is Index.Query over the session's caches, with the same
// validation, cancellation, and panic-containment contract. The cache stays
// consistent on cancellation: distance vectors computed before the cancel
// remain valid and are reused by later queries. Sessions do not record
// into the index's metrics.
func (s *Session) Query(ctx context.Context, q *Query, o QueryOptions) (a Answer, err error) {
	if gerr := guard(func() {
		a, err = s.s.Exec(ctx, q, core.Options{Objective: o.Objective, K: o.K, Validate: true})
	}); gerr != nil {
		return Answer{}, gerr
	}
	return a, err
}

// Neighbor is one entry of a KNearestFacilities or FacilitiesWithin answer:
// a facility partition (Facility) and its exact indoor distance (Dist).
type Neighbor = vip.Neighbor

// KNearestFacilities returns up to k facilities nearest to a point in
// ascending distance order with exact indoor distances. It returns nil when
// the point is outside the venue or facilities names a partition the venue
// does not have.
func (ix *Index) KNearestFacilities(p Point, facilities []PartitionID, k int) []Neighbor {
	pp := ix.venue.PartitionAt(p)
	if pp == NoPartition || !ix.knownPartitions(facilities...) {
		return nil
	}
	out := []Neighbor{}
	if k <= 0 {
		return out // a negative k would ask the search for every facility
	}
	fs := vip.NewFacilitySet(ix.venue, facilities)
	return ix.tree.Nearest(p, pp, fs, k, math.Inf(1), nil, out)
}

// FacilitiesWithin returns every facility within indoor distance r of a
// point (inclusive), in ascending distance order. It returns nil when the
// point is outside the venue, r is NaN, or facilities names a partition the
// venue does not have.
func (ix *Index) FacilitiesWithin(p Point, facilities []PartitionID, r float64) []Neighbor {
	pp := ix.venue.PartitionAt(p)
	if pp == NoPartition || math.IsNaN(r) || !ix.knownPartitions(facilities...) {
		return nil
	}
	fs := vip.NewFacilitySet(ix.venue, facilities)
	out := ix.tree.Nearest(p, pp, fs, -1, r, nil, []Neighbor{})
	// Equal distances dequeue in push order; the answer breaks them by ID.
	slices.SortFunc(out, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Facility, b.Facility))
	})
	return out
}

// knownPartitions reports whether every ID names a partition of the venue.
// The point queries check their IDs with it before touching the tree, which
// indexes per-partition arrays by ID.
func (ix *Index) knownPartitions(ids ...PartitionID) bool {
	n := PartitionID(ix.venue.NumPartitions())
	for _, id := range ids {
		if id < 0 || id >= n {
			return false
		}
	}
	return true
}

// Temporal variation: doors with opening schedules.

// Schedule is a door's daily opening schedule (empty = always open).
type Schedule = temporal.Schedule

// Timetable assigns opening schedules to a venue's doors.
type Timetable = temporal.Timetable

// Daily returns a schedule with a single daily opening window.
func Daily(open, close time.Duration) Schedule { return temporal.Daily(open, close) }

// NewTimetable creates an empty timetable over the indexed venue; doors
// without schedules stay always open.
func (ix *Index) NewTimetable() *Timetable { return temporal.NewTimetable(ix.venue) }

// DistanceAt returns the exact indoor distance between two points at a time
// of day, +Inf when closed doors make them mutually unreachable. It returns
// an error when either point is outside the venue, and one wrapping
// ErrInvalidQuery when tt is nil or was not created over the indexed venue.
func (ix *Index) DistanceAt(tt *Timetable, at time.Duration, p, q Point) (float64, error) {
	if err := ix.checkTimetable(tt); err != nil {
		return 0, err
	}
	pp := ix.venue.PartitionAt(p)
	qp := ix.venue.PartitionAt(q)
	if pp == NoPartition || qp == NoPartition {
		return 0, fmt.Errorf("ifls: point outside venue")
	}
	return ix.tree.Graph().Masked(tt.Mask(at)).PointToPoint(p, pp, q, qp), nil
}

// checkTimetable rejects a nil timetable and one created over another
// venue, whose door IDs would name this venue's doors only by accident.
// Venues compare by pointer, as NewTimetable records them.
func (ix *Index) checkTimetable(tt *Timetable) error {
	if tt == nil {
		return fmt.Errorf("%w: nil timetable", ErrInvalidQuery)
	}
	if tt.Venue() != ix.venue {
		return fmt.Errorf("%w: timetable was created over venue %q, not the indexed venue %q",
			ErrInvalidQuery, tt.Venue().Name, ix.venue.Name)
	}
	return nil
}

// SimulationConfig parameterizes NewSimulation.
type SimulationConfig = motion.Config

// Simulation moves a population of walkers through the venue along exact
// shortest indoor routes — the paper's dynamic-crowd / moving-clients
// scenario. Snapshot feeds the current population straight into a Query.
type Simulation = motion.Simulation

// NewSimulation creates a crowd simulation over the indexed venue.
func (ix *Index) NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	return motion.NewSimulation(ix.venue, ix.tree.Graph(), cfg)
}

// Continuous maintenance: a standing IFLS query kept up to date as clients
// move and doors open or close on schedule.

// ContinuousEngine maintains one MinMax IFLS answer incrementally across
// simulation ticks, re-solving only clients whose cached distance state a
// tick disturbed enough to change the answer. See internal/continuous for
// the exactness contract: every maintained answer is bit-identical to a
// fresh solve over the same snapshot.
type ContinuousEngine = continuous.Engine

// ContinuousEvent is one engine notification delivered to Subscribe
// callbacks.
type ContinuousEvent = continuous.Event

// ContinuousStats holds an engine's lifetime counters.
type ContinuousStats = continuous.Stats

// Continuous event kinds.
const (
	// ContinuousTick is delivered after every tick.
	ContinuousTick = continuous.EventTick
	// ContinuousAnswerChanged is delivered, after the tick event, when
	// the maintained answer differs from the previous tick's.
	ContinuousAnswerChanged = continuous.EventAnswerChanged
)

// ContinuousConfig parameterizes NewContinuous. The engine is wired to the
// Index's tree and metrics automatically; only the standing query, the
// population, and (optionally) a door timetable need to be supplied.
type ContinuousConfig struct {
	// Sim is the client population. The engine owns stepping it: callers
	// must not call Sim.Step while the engine is live. It must walk the
	// indexed venue (NewSimulation). Required.
	Sim *Simulation
	// Existing and Candidates are the standing query's facility sets.
	Existing, Candidates []PartitionID
	// Timetable, when non-nil, drives door-schedule transitions. It must
	// be built over the indexed venue (NewTimetable).
	Timetable *Timetable
	// ClockStart is the simulated time-of-day at tick zero.
	ClockStart time.Duration
}

// NewContinuous creates a standing-query engine over the indexed venue.
// Drive it with Tick; observe it with Subscribe, Result, and Stats. The
// index's metrics sink (WithMetrics), when set, receives the engine's
// continuous_* counters.
func (ix *Index) NewContinuous(cfg ContinuousConfig) (*ContinuousEngine, error) {
	return continuous.New(continuous.Config{
		Tree:       ix.tree,
		Sim:        cfg.Sim,
		Existing:   cfg.Existing,
		Candidates: cfg.Candidates,
		Timetable:  cfg.Timetable,
		ClockStart: cfg.ClockStart,
		Metrics:    ix.metrics,
	})
}

// Workload generation, re-exported for examples and downstream load tests.

// Distribution selects a spatial client distribution.
type Distribution = workload.Distribution

// Client distribution kinds.
const (
	Uniform = workload.Uniform
	Normal  = workload.Normal
)

// WorkloadGenerator draws clients and facility selections for a venue.
type WorkloadGenerator = workload.Generator

// NewWorkloadGenerator builds a generator for v.
func NewWorkloadGenerator(v *Venue) *WorkloadGenerator { return workload.NewGenerator(v) }

// RandomQuery draws a complete synthetic-setting query: nExist existing
// facilities and nCand candidates chosen uniformly from rooms, and nClients
// clients from the given distribution. Impossible requests (more facilities
// than rooms, an unknown distribution) yield an error wrapping
// ErrInvalidWorkload.
func RandomQuery(v *Venue, nExist, nCand, nClients int, dist Distribution, sigma float64, seed int64) (*Query, error) {
	g := workload.NewGenerator(v)
	return g.Query(nExist, nCand, nClients, dist, sigma, rand.New(rand.NewSource(seed)))
}
