package ifls

import (
	"net/http"

	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/pager"
)

// The page cache takes its counter sink as a small structural interface;
// *Metrics is the production implementation (see PagedIndexOptions.Metrics).
// Pin the contract here so a drifting method set fails the build, not a
// restart.
var _ pager.Metrics = (*obs.Metrics)(nil)

// Metrics aggregates process-level query observability: query, error, and
// cancellation counts, a fixed-bound latency histogram, per-stage span
// counters, and convergence/prune-rate gauges. One Metrics is typically
// shared by every index and batch in the process and published once via
// PublishExpvar or served with MetricsMux. All methods are safe for
// concurrent use.
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of a Metrics' aggregates.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics aggregate.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// MetricsMux returns an http.ServeMux serving the metrics as expvar JSON
// under /debug/vars (published under the name "ifls") and the standard
// pprof profiling endpoints under /debug/pprof/. Mount it on any listener:
//
//	go http.ListenAndServe("localhost:6060", ifls.MetricsMux(m))
func MetricsMux(m *Metrics) *http.ServeMux { return obs.NewMux(m) }

// WithMetrics returns a shallow copy of the index whose Query records
// per-query observations into m, on the same path the serving daemon uses
// (internal/batch.Execute): one span per instrumented stage (validate,
// locate, queue-pop, prune, answer-check) and one aggregate observation per
// query. The receiver is unchanged and both copies share the same
// underlying tree, so indexing work is not repeated. Cancelled queries
// contribute error and latency counts but no span events. A nil m returns
// an unobserved copy.
func (ix *Index) WithMetrics(m *Metrics) *Index {
	cp := *ix
	cp.metrics = m
	return &cp
}

// Metrics returns the aggregate attached by WithMetrics, or nil.
func (ix *Index) Metrics() *Metrics { return ix.metrics }
