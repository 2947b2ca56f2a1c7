// Package obs is the observability layer of the serving stack: per-query
// span tracing, process-level aggregate metrics, and expvar/pprof serving
// hooks. It depends only on the standard library.
//
// The paper's entire efficiency argument (one bottom-up search, the Gd
// bound, Lemma 5.1 pruning) is a claim about work counts; obs makes those
// counts auditable on a running system instead of only in offline bench
// CSVs. Two layers:
//
//   - A Recorder receives per-query span Events at the instrumented solver
//     stages (validate, locate, queue-pop, prune, answer-check), each
//     carrying a monotonic timestamp offset and a snapshot of the
//     core.Stats work counters. A nil Recorder means "disabled", and every
//     hook site guards with a single nil comparison, so the hot paths stay
//     allocation-free and branch-predictable when observability is off.
//
//   - Metrics aggregates whole queries across goroutines: query, error,
//     and cancellation counts, a fixed-bound latency histogram, and
//     prune-rate / Gd-convergence gauges, exported via expvar
//     (Metrics.PublishExpvar) and optionally served together with
//     net/http/pprof (NewMux).
//
// Concurrency: Metrics is safe for concurrent use (all state is atomic).
// Counting and Trace are single-goroutine values — the batch layer keeps
// one of each per query and merges into Metrics once when the query ends,
// so the hot path never contends on shared counters.
package obs

import "time"

// Stage identifies one instrumented solver stage. Stages are stable
// identifiers: the expvar export and the stage counters key on them.
type Stage uint8

const (
	// StageValidate is emitted by the serving boundary (package ifls,
	// internal/batch) after Query.Validate accepts a query.
	StageValidate Stage = iota
	// StageLocate is emitted when a solver has grouped the clients by
	// partition and resolved their door-offset vectors (the preamble of
	// Algorithms 2/3), or per client NN search in the baseline.
	StageLocate
	// StageQueuePop is emitted once per global-bound advance of the
	// best-first traversal (all queue entries tied at the bound have been
	// consumed), or per NN search dequeue batch in the baseline.
	StageQueuePop
	// StagePrune is emitted once per client eliminated by Lemma 5.1 (or
	// per refinement round in the baseline).
	StagePrune
	// StageAnswerCheck is emitted per stop-condition evaluation: covering
	// scans of the efficient approach, Find_Ans in the baseline, and the
	// extensions' certainty checks.
	StageAnswerCheck

	// NumStages is the number of instrumented stages.
	NumStages = int(StageAnswerCheck) + 1
)

var stageNames = [NumStages]string{
	"validate", "locate", "queue_pop", "prune", "answer_check",
}

// String returns the stage's stable snake_case name, used as the expvar
// key.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one per-query stage event. A plain value; hook sites construct
// it on the stack and implementations must not retain pointers into it
// (there are none to retain).
type Span struct {
	// Stage is the emitting stage.
	Stage Stage
	// Elapsed is the monotonic offset from the query's start (time.Since
	// on the solver's start timestamp, so wall-clock jumps cannot reorder
	// spans).
	Elapsed time.Duration
	// DistanceCalcs..PrunedClients snapshot the core.Stats work counters
	// at event time.
	DistanceCalcs int
	Retrievals    int
	QueuePops     int
	PrunedClients int
	// Gd is the traversal's current global bound (0 before the traversal
	// starts; the baseline reports the NN distance horizon).
	Gd float64
}

// Recorder receives one query's span events. Implementations must be
// cheap — hot solver loops call Event inline. A nil Recorder is valid at
// every hook site and means "disabled"; the hooks then cost one nil
// comparison and no allocation.
//
// A Recorder is bound to a single query/goroutine unless its
// implementation documents otherwise (Metrics is the shared, concurrent
// implementation; Counting and Trace are single-goroutine).
type Recorder interface {
	Event(Span)
}

// Nop is the no-op Recorder: attached but recording nothing. It exists so
// the disabled-path guarantee is testable — core.Exec with a Nop recorder
// must allocate exactly as much as core.Exec with no recorder at all.
type Nop struct{}

// Event discards the span.
func (Nop) Event(Span) {}

// StageCounts counts span events per stage. A plain value.
type StageCounts [NumStages]uint64

// Total returns the sum over all stages.
func (c StageCounts) Total() uint64 {
	var t uint64
	for _, n := range c {
		t += n
	}
	return t
}

// Counting is an unsynchronized tallying Recorder: one per query, merged
// into shared aggregates with Metrics.MergeStages when the query ends (see
// internal/batch). Not safe for concurrent use.
type Counting struct {
	// Counts tallies events per stage.
	Counts StageCounts
}

// Event counts the span by stage.
func (c *Counting) Event(sp Span) { c.Counts[sp.Stage]++ }

// Trace buffers one query's spans so the serving layer can discard a
// cancelled query's partial trace or flush a completed one into an
// aggregate Recorder — the batch layer's guarantee that cancelled queries
// contribute no span events. Not safe for concurrent use; reuse via Reset.
type Trace struct {
	spans []Span
}

// Event appends the span to the buffer.
func (t *Trace) Event(sp Span) { t.spans = append(t.spans, sp) }

// Spans returns the buffered spans in emission order. The slice aliases
// the buffer: it is invalidated by Reset and further Events.
func (t *Trace) Spans() []Span { return t.spans }

// Len returns the number of buffered spans.
func (t *Trace) Len() int { return len(t.spans) }

// Reset empties the buffer, retaining its storage for the next query.
func (t *Trace) Reset() { t.spans = t.spans[:0] }

// FlushTo replays the buffered spans into r (a no-op for nil r) and
// leaves the buffer intact; callers Reset explicitly.
func (t *Trace) FlushTo(r Recorder) {
	if r == nil {
		return
	}
	for _, sp := range t.spans {
		r.Event(sp)
	}
}
