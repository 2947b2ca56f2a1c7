package obs

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBounds are the fixed upper bounds of the latency histogram
// buckets, ascending; a final implicit +Inf bucket catches the overflow.
// Fixed bounds keep merges and exports trivial (no rebinning) and cover
// the observed per-query range from microseconds (small venues) to
// seconds (paper-scale client counts on cold caches).
var LatencyBounds = [numLatencyBuckets - 1]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
}

// numLatencyBuckets is len(LatencyBounds) plus the +Inf overflow bucket
// (array-typed so the histogram can be a fixed atomic array).
const numLatencyBuckets = 16

// QueryObservation is one whole query's aggregate outcome, fed to
// Metrics.ObserveQuery by the serving layer when the query finishes
// (successfully, with an error, or cancelled).
type QueryObservation struct {
	// Elapsed is the query's wall time.
	Elapsed time.Duration
	// Err is the query's error, nil on success. Cancellations are
	// classified by unwrapping to context.Canceled or
	// context.DeadlineExceeded (the faults taxonomy keeps the context's
	// own error in the chain).
	Err error
	// Clients is the query's |C|; Pruned is Stats.PrunedClients. Their
	// running ratio is the prune-rate gauge.
	Clients int
	Pruned  int
	// DistanceCalcs and QueuePops snapshot the remaining work counters.
	DistanceCalcs int
	QueuePops     int
	// Found reports whether the query returned an improving candidate.
	Found bool
	// FinalGd is the global bound at which the query converged (the
	// answer's exact objective for found MinMax queries). NaN when
	// unknown or not found; such observations leave the Gd gauge alone.
	FinalGd float64
}

// Metrics aggregates queries process-wide. All state is atomic: one
// Metrics may be shared by every concurrent query, and reads (Snapshot,
// the expvar export) are safe at any time. The zero value is ready to use;
// NewMetrics is provided for symmetry.
//
// Metrics also implements Recorder, counting span events per stage. Hot
// solver loops that would contend on these atomics should record into a
// per-query Counting instead and MergeStages once at the end — that is
// what internal/batch does.
type Metrics struct {
	queries       atomic.Int64
	errors        atomic.Int64
	cancellations atomic.Int64
	found         atomic.Int64

	stages  [NumStages]atomic.Uint64
	latency [numLatencyBuckets]atomic.Int64

	clients       atomic.Int64
	pruned        atomic.Int64
	distanceCalcs atomic.Int64
	queuePops     atomic.Int64

	// gdSumBits accumulates the sum of FinalGd values (float64 bits,
	// CAS-updated); gdCount counts the contributing observations.
	gdSumBits atomic.Uint64
	gdCount   atomic.Int64

	// Serving-layer counters (internal/server): coalesceHits counts queries
	// answered by joining an already-running identical flight, coalesceMisses
	// counts queries that led a new flight (one traversal each), and
	// inFlight is the current number of admitted, unfinished queries.
	coalesceHits   atomic.Int64
	coalesceMisses atomic.Int64
	inFlight       atomic.Int64

	// Resilience counters: queriesTimedOut counts requests terminated by a
	// server-side deadline (one per 504 response, so every coalesced
	// participant that times out counts); flightsReaped counts shared
	// flights cancelled because every participant departed and the
	// abandon grace elapsed.
	queriesTimedOut atomic.Int64
	flightsReaped   atomic.Int64

	// Paged-index counters (internal/pager, fed by every page cache of
	// every paged index wired to this Metrics): hits and misses partition
	// page lookups, evictions counts pages dropped under budget pressure,
	// and pagesRead counts physical page reads from disk.
	// *Metrics satisfies pager.Metrics structurally.
	pageCacheHits      atomic.Int64
	pageCacheMisses    atomic.Int64
	pageCacheEvictions atomic.Int64
	pagesRead          atomic.Int64

	// Standing-query counters (internal/continuous): ticks counts engine
	// ticks; resolved, reused and carried split each tick's clients into
	// rows recomputed, rows reused exact because the client did not move,
	// and moved clients' rows kept on a drift bound; invalidations counts
	// client rows discarded because a door-schedule transition changed
	// their partition's distance state; answer changes counts ticks whose
	// maintained answer differed from the previous one; signatures counts
	// the partition signatures ticks computed.
	continuousTicks         atomic.Int64
	continuousResolved      atomic.Int64
	continuousReused        atomic.Int64
	continuousCarried       atomic.Int64
	continuousInvalidations atomic.Int64
	continuousAnswerChanges atomic.Int64
	continuousSignatures    atomic.Int64
}

// NewMetrics returns an empty Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// Event implements Recorder: the span is counted by stage. Safe for
// concurrent use.
func (m *Metrics) Event(sp Span) { m.stages[sp.Stage].Add(1) }

// MergeStages folds a per-query StageCounts into the shared stage
// counters. Safe for concurrent use.
func (m *Metrics) MergeStages(c StageCounts) {
	for i, n := range c {
		if n != 0 {
			m.stages[i].Add(n)
		}
	}
}

// ObserveQuery records one finished query. Cancelled queries count toward
// Queries, Errors, and Cancellations but contribute nothing to the work
// gauges (their partial counters are discarded with their partial trace).
// Safe for concurrent use.
func (m *Metrics) ObserveQuery(o QueryObservation) {
	m.queries.Add(1)
	m.latency[latencyBucket(o.Elapsed)].Add(1)
	if o.Err != nil {
		m.errors.Add(1)
		if errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded) {
			m.cancellations.Add(1)
		}
		return
	}
	if o.Found {
		m.found.Add(1)
	}
	m.clients.Add(int64(o.Clients))
	m.pruned.Add(int64(o.Pruned))
	m.distanceCalcs.Add(int64(o.DistanceCalcs))
	m.queuePops.Add(int64(o.QueuePops))
	if !math.IsNaN(o.FinalGd) && !math.IsInf(o.FinalGd, 0) {
		addFloat(&m.gdSumBits, o.FinalGd)
		m.gdCount.Add(1)
	}
}

// CoalesceHit records one query answered by joining an in-flight identical
// flight instead of running its own traversal. Safe for concurrent use.
func (m *Metrics) CoalesceHit() { m.coalesceHits.Add(1) }

// CoalesceMiss records one query that found no identical in-flight work and
// led a new shared flight (exactly one traversal ran for it). Safe for
// concurrent use.
func (m *Metrics) CoalesceMiss() { m.coalesceMisses.Add(1) }

// QueryInFlight adjusts the in-flight query gauge: +1 when the serving
// layer admits a query, -1 when its response is complete. Safe for
// concurrent use.
func (m *Metrics) QueryInFlight(delta int) { m.inFlight.Add(int64(delta)) }

// QueryTimedOut records one request terminated by a server-side deadline
// (a 504 response). Safe for concurrent use.
func (m *Metrics) QueryTimedOut() { m.queriesTimedOut.Add(1) }

// FlightReaped records one coalesced flight cancelled because all of its
// participants departed and the abandon grace elapsed — shared work nobody
// was waiting for. Safe for concurrent use.
func (m *Metrics) FlightReaped() { m.flightsReaped.Add(1) }

// PageCacheHit records one index page served from the page cache. Safe for
// concurrent use.
func (m *Metrics) PageCacheHit() { m.pageCacheHits.Add(1) }

// PageCacheMiss records one index page fault that went to the page source.
// Safe for concurrent use.
func (m *Metrics) PageCacheMiss() { m.pageCacheMisses.Add(1) }

// PageCacheEviction records one index page dropped from the page cache to
// stay inside its byte budget. Safe for concurrent use.
func (m *Metrics) PageCacheEviction() { m.pageCacheEvictions.Add(1) }

// PageRead records one physical index page read from disk.
// Safe for concurrent use.
func (m *Metrics) PageRead() { m.pagesRead.Add(1) }

// ContinuousTick records one standing-query engine tick that re-solved
// `resolved` client rows, reused `reused` exact ones, carried `carried` on
// a drift bound and computed `signed` partition signatures. Safe for
// concurrent use.
func (m *Metrics) ContinuousTick(resolved, reused, carried, signed int) {
	m.continuousTicks.Add(1)
	m.continuousResolved.Add(int64(resolved))
	m.continuousReused.Add(int64(reused))
	m.continuousCarried.Add(int64(carried))
	m.continuousSignatures.Add(int64(signed))
}

// ContinuousInvalidation records n client rows discarded because a
// door-schedule transition changed their partition's distance state. Safe
// for concurrent use.
func (m *Metrics) ContinuousInvalidation(n int) {
	m.continuousInvalidations.Add(int64(n))
}

// ContinuousAnswerChange records one tick whose maintained answer differed
// from the previous tick's. Safe for concurrent use.
func (m *Metrics) ContinuousAnswerChange() { m.continuousAnswerChanges.Add(1) }

// InFlight returns the current value of the in-flight query gauge.
func (m *Metrics) InFlight() int64 { return m.inFlight.Load() }

// latencyBucket returns the histogram bucket index for an elapsed time.
func latencyBucket(d time.Duration) int {
	for i, b := range LatencyBounds {
		if d <= b {
			return i
		}
	}
	return len(LatencyBounds)
}

// addFloat atomically adds v to the float64 stored as bits in a.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of a Metrics, plain values only.
type Snapshot struct {
	// Queries counts every observed query; Errors those with a non-nil
	// error; Cancellations the subset forced by context cancellation;
	// Found the successful queries that returned an improving candidate.
	Queries, Errors, Cancellations, Found int64
	// Stages counts span events per instrumented stage.
	Stages StageCounts
	// Latency holds one count per LatencyBounds bucket plus the +Inf
	// overflow bucket.
	Latency []int64
	// Clients/Pruned/DistanceCalcs/QueuePops total the work counters of
	// successful queries.
	Clients, Pruned, DistanceCalcs, QueuePops int64
	// PruneRate is Pruned/Clients — the realized Lemma 5.1 pruning rate
	// (0 when no clients have been observed).
	PruneRate float64
	// GdFinalAvg is the mean global bound at convergence over queries
	// that reported one (NaN when none have).
	GdFinalAvg float64
	// CoalesceHits and CoalesceMisses count the serving layer's shared
	// flights: a miss runs one traversal, a hit rides on one. InFlight is
	// the admitted-but-unfinished query gauge at snapshot time.
	CoalesceHits, CoalesceMisses, InFlight int64
	// QueriesTimedOut counts requests terminated by a server-side deadline
	// (504 responses); FlightsReaped counts shared flights cancelled after
	// every participant departed (abandoned work released).
	QueriesTimedOut, FlightsReaped int64
	// PageCacheHits/PageCacheMisses partition page lookups of paged
	// indexes; PageCacheEvictions counts budget-pressure drops; PagesRead
	// counts physical page reads.
	PageCacheHits, PageCacheMisses, PageCacheEvictions, PagesRead int64
	// ContinuousTicks counts standing-query engine ticks;
	// ContinuousResolved, ContinuousReused and ContinuousCarried split
	// each tick's clients into recomputed rows, exact reused rows and rows
	// carried on a drift bound; ContinuousInvalidations counts rows
	// discarded on door-schedule transitions; ContinuousAnswerChanges
	// counts answer flips; ContinuousSignatures counts the partition
	// signatures ticks computed.
	ContinuousTicks, ContinuousResolved, ContinuousReused, ContinuousCarried int64
	ContinuousInvalidations, ContinuousAnswerChanges, ContinuousSignatures   int64
}

// Snapshot returns a consistent-enough copy for serving: each field is
// read atomically; cross-field skew is bounded by in-flight queries.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Queries:         m.queries.Load(),
		Errors:          m.errors.Load(),
		Cancellations:   m.cancellations.Load(),
		Found:           m.found.Load(),
		Latency:         make([]int64, len(m.latency)),
		Clients:         m.clients.Load(),
		Pruned:          m.pruned.Load(),
		DistanceCalcs:   m.distanceCalcs.Load(),
		QueuePops:       m.queuePops.Load(),
		CoalesceHits:    m.coalesceHits.Load(),
		CoalesceMisses:  m.coalesceMisses.Load(),
		InFlight:        m.inFlight.Load(),
		QueriesTimedOut: m.queriesTimedOut.Load(),
		FlightsReaped:   m.flightsReaped.Load(),

		PageCacheHits:      m.pageCacheHits.Load(),
		PageCacheMisses:    m.pageCacheMisses.Load(),
		PageCacheEvictions: m.pageCacheEvictions.Load(),
		PagesRead:          m.pagesRead.Load(),

		ContinuousTicks:         m.continuousTicks.Load(),
		ContinuousResolved:      m.continuousResolved.Load(),
		ContinuousReused:        m.continuousReused.Load(),
		ContinuousCarried:       m.continuousCarried.Load(),
		ContinuousInvalidations: m.continuousInvalidations.Load(),
		ContinuousAnswerChanges: m.continuousAnswerChanges.Load(),
		ContinuousSignatures:    m.continuousSignatures.Load(),
	}
	for i := range m.stages {
		s.Stages[i] = m.stages[i].Load()
	}
	for i := range m.latency {
		s.Latency[i] = m.latency[i].Load()
	}
	s.PruneRate = 0
	if s.Clients > 0 {
		s.PruneRate = float64(s.Pruned) / float64(s.Clients)
	}
	s.GdFinalAvg = math.NaN()
	if n := m.gdCount.Load(); n > 0 {
		s.GdFinalAvg = math.Float64frombits(m.gdSumBits.Load()) / float64(n)
	}
	return s
}

// expvarMap renders the snapshot as the map the expvar Func publishes.
// JSON-friendly: NaN gauges are omitted rather than emitted (encoding/json
// rejects NaN).
func (m *Metrics) expvarMap() map[string]any {
	s := m.Snapshot()
	stages := make(map[string]uint64, NumStages)
	for i, n := range s.Stages {
		stages[Stage(i).String()] = n
	}
	latency := make(map[string]int64, len(s.Latency))
	for i, n := range s.Latency {
		key := "+Inf"
		if i < len(LatencyBounds) {
			key = fmt.Sprintf("le_%s", LatencyBounds[i])
		}
		latency[key] = n
	}
	out := map[string]any{
		"queries":           s.Queries,
		"errors":            s.Errors,
		"cancellations":     s.Cancellations,
		"found":             s.Found,
		"stages":            stages,
		"latency":           latency,
		"clients":           s.Clients,
		"pruned_clients":    s.Pruned,
		"distance_calcs":    s.DistanceCalcs,
		"queue_pops":        s.QueuePops,
		"prune_rate":        s.PruneRate,
		"coalesce_hits":     s.CoalesceHits,
		"coalesce_misses":   s.CoalesceMisses,
		"in_flight":         s.InFlight,
		"queries_timed_out": s.QueriesTimedOut,
		"flights_reaped":    s.FlightsReaped,

		"page_cache_hits":      s.PageCacheHits,
		"page_cache_misses":    s.PageCacheMisses,
		"page_cache_evictions": s.PageCacheEvictions,
		"pages_read":           s.PagesRead,

		"continuous_ticks":                  s.ContinuousTicks,
		"continuous_clients_resolved":       s.ContinuousResolved,
		"continuous_clients_reused":         s.ContinuousReused,
		"continuous_clients_carried":        s.ContinuousCarried,
		"continuous_schedule_invalidations": s.ContinuousInvalidations,
		"continuous_answer_changes":         s.ContinuousAnswerChanges,
		"continuous_signatures":             s.ContinuousSignatures,
	}
	if !math.IsNaN(s.GdFinalAvg) {
		out["gd_final_avg"] = s.GdFinalAvg
	}
	return out
}

// ExpvarString renders the live snapshot as the same JSON object the
// published expvar Func serves, for callers that want the rendering
// without registering a global expvar name (tests, one-shot dumps).
func (m *Metrics) ExpvarString() string {
	b, err := json.Marshal(m.expvarMap())
	if err != nil {
		// The map holds only finite numbers and strings; see expvarMap.
		return "{}"
	}
	return string(b)
}

// published guards expvar registration: expvar.Publish panics on duplicate
// names, so PublishExpvar keeps its own name→Metrics registry and makes
// re-publishing the same Metrics under the same name a no-op.
var (
	publishedMu sync.Mutex
	published   = map[string]*Metrics{}
)

// PublishExpvar registers the metrics under the given expvar name
// (default "ifls" when empty) as a Func rendering the live snapshot.
// Publishing the same Metrics under the same name again is a no-op;
// publishing a different Metrics under a taken name returns an error
// instead of panicking.
func (m *Metrics) PublishExpvar(name string) error {
	if name == "" {
		name = "ifls"
	}
	publishedMu.Lock()
	defer publishedMu.Unlock()
	if prev, ok := published[name]; ok {
		if prev == m {
			return nil
		}
		return fmt.Errorf("obs: expvar name %q already published for a different Metrics", name)
	}
	if expvar.Get(name) != nil {
		return fmt.Errorf("obs: expvar name %q already taken", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return m.expvarMap() }))
	published[name] = m
	return nil
}
