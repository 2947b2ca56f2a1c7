package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// Query is one unit of work: an IFLS query body plus the objective to solve
// it under. A Query is read-only during Execute and may be shared between
// concurrent calls.
type Query struct {
	// Objective picks the core.Exec dispatch entry; the zero value is
	// core.ObjMinMax.
	Objective core.Objective
	// K is the result count for ObjTopK and the facility count for
	// ObjMulti (ignored otherwise).
	K int
	// Query is the IFLS query body. A nil body fails the query with an
	// error rather than the caller.
	Query *core.Query
}

// Result is one query's outcome: the core.Exec payload, whose field
// selected by the query's objective is populated, or Err when the query
// failed or was cancelled. A Result is owned by the caller.
type Result struct {
	core.ExecResult
	// Err is non-nil when the query did not produce an answer: context
	// cancellation, a nil query body, a query that fails validation
	// against the venue, an unknown objective, or a recovered solver
	// panic. Err always wraps one of the internal/faults sentinels
	// (ErrCancelled, ErrInvalidQuery, ErrUnknownObjective, ErrSolverPanic),
	// so callers classify with errors.Is.
	Err error
	// Elapsed is the query's own wall time (zero for cancelled queries).
	Elapsed time.Duration
}

// Execute runs one query against t — the serving path of internal/server
// and package ifls. The query goes through the validate → core.Exec
// pipeline, backed by a Scratch leased from the shared pool, with its
// errors isolated: every failure lands in Result.Err, classified by the
// faults taxonomy; nothing panics or aborts the caller. A context already
// done records ErrCancelled without running the query.
//
// When m is non-nil, one aggregate observation is recorded and the query's
// span trace is merged into m's stage counters once; a cancelled query's
// partial trace is discarded, so stage counters only describe completed
// work.
//
// Execute is safe to call concurrently — even on the same tree — because
// all mutable state is leased per call.
func Execute(ctx context.Context, t *vip.Tree, q Query, m *obs.Metrics) Result {
	if t == nil {
		return Result{Err: fmt.Errorf("%w: nil tree", faults.ErrInvalidOptions)}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sc := scratchPool.Get().(*core.Scratch)
	defer scratchPool.Put(sc)
	var r Result
	var spans obs.Counting
	if err := ctx.Err(); err != nil {
		r.Err = faults.Cancelled(err)
	} else {
		var tr *obs.Trace // nil keeps the solvers on their unobserved path
		if m != nil {
			tr = new(obs.Trace)
		}
		r = runOne(ctx, t, q, tr, sc)
		if tr != nil && !errors.Is(r.Err, faults.ErrCancelled) {
			tr.FlushTo(&spans)
		}
	}
	if m != nil {
		m.ObserveQuery(observation(q, &r))
		m.MergeStages(spans.Counts)
	}
	return r
}

// observation renders one finished query for Metrics.ObserveQuery. Failed
// queries carry only the error and elapsed time; the work gauges come from
// the payload the objective populated.
func observation(q Query, r *Result) obs.QueryObservation {
	o := obs.QueryObservation{Elapsed: r.Elapsed, Err: r.Err}
	if r.Err != nil {
		return o
	}
	if q.Query != nil {
		o.Clients = len(q.Query.Clients)
	}
	out := r.Outcome(q.Objective)
	o.Pruned = out.Stats.PrunedClients
	o.DistanceCalcs = out.Stats.DistanceCalcs
	o.QueuePops = out.Stats.QueuePops
	o.Found = out.Found
	o.FinalGd = out.Value
	return o
}

// scratchPool hands each Execute call a reusable core.Scratch. Pool-global,
// so concurrent and successive queries reuse warm memory.
var scratchPool = sync.Pool{New: func() any { return core.NewScratch() }}

// testHookRun, when non-nil, runs inside runOne's recovery scope before the
// solver dispatch. Tests use it to inject panics at a point production input
// cannot reach (validation rejects realistic panic sources first), proving
// the containment path without weakening validation.
var testHookRun func(Query)

// runOne executes a single query inside a recovery scope, so one malformed
// query cannot take down its caller: validation failures, unknown
// objectives, cancellation, and recovered solver panics all land in the
// query's own Result.Err, classified by the faults taxonomy. The solver work
// is one core.Exec call — a non-nil trace becomes the run's recorder, and
// the leased Scratch backs the run's working memory. core.Exec rejects an
// out-of-table objective with ErrUnknownObjective.
func runOne(ctx context.Context, t *vip.Tree, q Query, tr *obs.Trace, sc *core.Scratch) (r Result) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r = Result{Err: faults.Recovered(p)}
		}
		r.Elapsed = time.Since(start)
	}()
	if testHookRun != nil {
		testHookRun(q)
	}
	if q.Query == nil {
		r.Err = fmt.Errorf("%w: nil query body", faults.ErrInvalidQuery)
		return r
	}
	if err := q.Query.Validate(t.Venue()); err != nil {
		r.Err = err
		return r
	}
	// A nil *obs.Trace must stay a nil interface, or the solver would take
	// its observed path with a typed-nil recorder.
	var rec obs.Recorder
	if tr != nil {
		tr.Event(obs.Span{Stage: obs.StageValidate, Elapsed: time.Since(start)})
		rec = tr
	}
	r.ExecResult, r.Err = core.Exec(ctx, t, q.Query, core.Options{Objective: q.Objective, K: q.K, Recorder: rec, Scratch: sc})
	return r
}
