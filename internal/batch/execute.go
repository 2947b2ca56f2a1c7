package batch

import (
	"context"
	"fmt"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// Execute runs one query against t outside any batch — the serving path of
// internal/server and package ifls. It is one step of Run's worker loop: the
// query goes through the same validate → core.Exec pipeline, backed by a
// Scratch leased from the shared pool, with the same error isolation (every
// failure lands in Result.Err, classified by the faults taxonomy; nothing
// panics or aborts the caller).
//
// When m is non-nil, the query's span trace is merged into m's stage
// counters (discarded on cancellation, as in Run) and one aggregate
// observation is recorded either way.
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
	w := newWorker(m)
	defer w.release()
	r := w.execute(ctx, t, q)
	if m != nil {
		m.MergeStages(w.spans.Counts)
	}
	return r
}
