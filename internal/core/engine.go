package core

import (
	"context"
	"fmt"
	"math"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// Objective selects the scoring strategy Exec runs over the shared query
// pipeline. The zero value is MinMax, the paper's headline objective.
type Objective uint8

const (
	// ObjMinMax minimizes the maximum client-to-nearest-facility distance
	// (Algorithms 2 and 3, the efficient approach).
	ObjMinMax Objective = iota
	// ObjBaseline answers MinMax with the per-client modified MinMax
	// algorithm (Algorithm 1), kept for comparison.
	ObjBaseline
	// ObjMinDist minimizes the total client-to-nearest-facility distance
	// (Section 7 extension).
	ObjMinDist
	// ObjMaxSum maximizes the number of captured clients (Section 7
	// extension).
	ObjMaxSum
	// ObjTopK ranks the Options.K best candidates by MinMax objective.
	ObjTopK
	// ObjMulti greedily selects Options.K candidates for K new facilities.
	// Joint k-facility MinMax selection generalizes k-center and is NP-hard,
	// so a greedy chain is the standard practical approach (the k-location
	// variants the paper surveys do the same); SolveBruteMulti provides the
	// exact joint optimum for small instances and tests.
	ObjMulti

	numObjectives // sentinel: count of dispatch-table entries
)

// String returns the objective's wire name, the spelling ParseObjective
// accepts.
func (o Objective) String() string {
	if o < numObjectives {
		return objectives[o].name
	}
	return fmt.Sprintf("objective(%d)", uint8(o))
}

// ParseObjective maps a wire name to its Objective. The empty name is
// ObjMinMax, the zero value; an unknown name yields an error wrapping
// faults.ErrUnknownObjective.
func ParseObjective(name string) (Objective, error) {
	if name == "" {
		return ObjMinMax, nil
	}
	for o := range objectives {
		if objectives[o].name == name {
			return Objective(o), nil
		}
	}
	return 0, fmt.Errorf("%w: %q", faults.ErrUnknownObjective, name)
}

// Options configure one Exec call. The zero value runs an unobserved,
// non-pooled, unvalidated MinMax query with the efficient approach.
type Options struct {
	// Objective picks the dispatch-table entry.
	Objective Objective
	// K is the result count for ObjTopK and the facility count for
	// ObjMulti; ignored by the single-answer objectives.
	K int
	// Recorder, when non-nil, receives one obs.Span per instrumented stage.
	// Nil keeps the run on the exact unobserved code path (each hook is a
	// single nil comparison).
	Recorder obs.Recorder
	// Scratch, when non-nil, backs the run with pooled working memory; see
	// Scratch for the reuse and ownership rules. Nil allocates fresh state,
	// byte-identical to the pre-engine solvers.
	Scratch *Scratch
	// Validate runs Query.Validate before dispatch, rejecting malformed
	// input with faults.ErrInvalidQuery. Serving layers that already
	// validated (and want their own error shaping) leave it false.
	Validate bool

	// explorers, when non-nil, replaces the run's explorer cache with a
	// caller-owned persistent one. Only Session sets it: cached distance
	// vectors then survive across queries (and are charged to the Stats
	// memory metric), which is Session's documented trade.
	explorers *explorerCache
}

// ExecResult carries the payload of one Exec call; the field selected by
// Options.Objective is populated, the rest stay zero. A plain value owned
// by the caller.
type ExecResult struct {
	// MinMax holds the ObjMinMax / ObjBaseline answer.
	MinMax Result
	// Ext holds the ObjMinDist / ObjMaxSum answer.
	Ext ExtResult
	// TopK holds the ObjTopK ranking. Always freshly allocated, never
	// aliased into a Scratch.
	TopK []RankedCandidate
	// Multi holds the ObjMulti selection.
	Multi MultiResult
}

// Outcome is the objective-independent summary of an ExecResult: what a
// serving layer reports and a metrics sink aggregates, whatever the
// objective. A plain value.
type Outcome struct {
	// Found reports whether some candidate improves on the status quo
	// (Result.Found, ExtResult.Improves, or a non-empty ranking or
	// selection).
	Found bool
	// Answer is the best (or first-selected) candidate the payload names;
	// NoPartition when it names none.
	Answer indoor.PartitionID
	// Value is the payload's objective value (for ObjMulti, after every
	// selection); NaN when it has none.
	Value float64
	// Stats are the run's work counters; zero for ObjTopK, whose ranking
	// carries none.
	Stats Stats
}

// Outcome summarizes the payload o populated.
func (r *ExecResult) Outcome(o Objective) Outcome {
	switch o {
	case ObjMinMax, ObjBaseline:
		return Outcome{Found: r.MinMax.Found, Answer: r.MinMax.Answer, Value: r.MinMax.Objective, Stats: r.MinMax.Stats}
	case ObjMinDist, ObjMaxSum:
		return Outcome{Found: r.Ext.Improves, Answer: r.Ext.Answer, Value: r.Ext.Objective, Stats: r.Ext.Stats}
	case ObjTopK:
		if len(r.TopK) > 0 {
			return Outcome{Found: true, Answer: r.TopK[0].Candidate, Value: r.TopK[0].Objective}
		}
	case ObjMulti:
		if len(r.Multi.Answers) > 0 {
			return Outcome{Found: true, Answer: r.Multi.Answers[0], Value: r.Multi.Objective, Stats: r.Multi.Stats}
		}
		return Outcome{Answer: indoor.NoPartition, Value: math.NaN(), Stats: r.Multi.Stats}
	}
	return Outcome{Answer: indoor.NoPartition, Value: math.NaN()}
}

// execFn runs one objective over a validated, non-empty query.
type execFn func(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error)

// objectiveEntry is one dispatch-table row: the objective's wire name, its
// canonical empty result (the uniform not-found semantics for impossible
// queries), and its runner. Adding an objective means adding a row — the
// pipeline (validate, locate, traverse, prune) is shared.
type objectiveEntry struct {
	name  string
	empty func() ExecResult
	run   execFn
}

var objectives = [numObjectives]objectiveEntry{
	ObjMinMax:   {name: "minmax", empty: emptyMinMax, run: execMinMax},
	ObjBaseline: {name: "baseline", empty: emptyMinMax, run: execBaseline},
	ObjMinDist:  {name: "mindist", empty: emptyExt, run: execMinDist},
	ObjMaxSum:   {name: "maxsum", empty: emptyExt, run: execMaxSum},
	ObjTopK:     {name: "topk", empty: emptyTopK, run: execTopK},
	ObjMulti:    {name: "multi", empty: emptyMulti, run: execMulti},
}

// The canonical empty results: every objective answers an impossible query
// (no clients, no candidates, or a non-positive K where K matters) with its
// typed "no improving candidate" value, before any state is built.
func emptyMinMax() ExecResult { return ExecResult{MinMax: noResult()} }
func emptyExt() ExecResult    { return ExecResult{Ext: noExtResult()} }
func emptyTopK() ExecResult   { return ExecResult{} }
func emptyMulti() ExecResult  { return ExecResult{Multi: noMultiResult()} }

// Exec answers one IFLS query through the unified engine pipeline:
// validate (opt-in) → dispatch → locate/group clients → bottom-up VIP-tree
// traversal with Gd pruning → objective-specific scoring. It is the
// package's one query entry point over the VIP-tree; Session and the
// serving layers (internal/batch, package ifls) all end here.
//
// Exec polls ctx at the solvers' checkpoints (see each objective's runner);
// a cancel or deadline returns an error wrapping both faults.ErrCancelled
// and ctx.Err(). A non-cancellable ctx, a nil Recorder, and a nil Scratch
// skip every checkpoint, span hook, and pool. The answer never depends on
// any of them. On any error the payload is the zero ExecResult; partial
// work is discarded.
//
// Exec is safe for concurrent calls over one read-only tree as long as each
// concurrent call has its own Scratch (or none).
func Exec(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	if o.Validate {
		if q == nil {
			return ExecResult{}, fmt.Errorf("%w: nil query", faults.ErrInvalidQuery)
		}
		if err := q.Validate(t.Venue()); err != nil {
			return ExecResult{}, err
		}
	}
	if o.Objective >= numObjectives {
		return ExecResult{}, fmt.Errorf("%w: objective %d", faults.ErrUnknownObjective, uint8(o.Objective))
	}
	e := &objectives[o.Objective]
	if emptyInput(q, o) {
		return e.empty(), nil
	}
	return e.run(ctx, t, q, o)
}

// emptyInput reports whether the query cannot name an answer, uniformly
// across objectives: no clients, no candidates, or (for the K-parameterized
// objectives) a non-positive K.
func emptyInput(q *Query, o Options) bool {
	if len(q.Clients) == 0 || len(q.Candidates) == 0 {
		return true
	}
	if o.Objective == ObjTopK || o.Objective == ObjMulti {
		return o.K <= 0
	}
	return false
}

func execMinMax(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	r, err := newEAState(ctx, t, q, o).run()
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{MinMax: r}, nil
}

// execBaseline runs the per-client modified MinMax algorithm. It shares the
// engine's validation and empty-result semantics but not its traversal or
// Scratch: the baseline's state is a handful of call-local slices, which is
// exactly the memory frugality the paper measures it for.
func execBaseline(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	r, err := solveBaseline(ctx, t, q, o.Recorder)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{MinMax: r}, nil
}

func execMinDist(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	s := newExtState(ctx, t, q, o)
	obj := newMinDistObj(s)
	k, err := s.run(obj)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Ext: ExtResult{
		Answer: s.cands[k], Objective: obj.sumExact[k], Improves: obj.capturedAny[k], Stats: s.finalStats(),
	}}, nil
}

func execMaxSum(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	s := newExtState(ctx, t, q, o)
	obj := newMaxSumObj(s)
	k, err := s.run(obj)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Ext: ExtResult{
		Answer: s.cands[k], Objective: float64(obj.captured[k]), Improves: obj.captured[k] > 0, Stats: s.finalStats(),
	}}, nil
}

func execTopK(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	s := newEAState(ctx, t, q, o)
	s.topK = o.K
	if _, err := s.run(); err != nil {
		return ExecResult{}, err
	}
	return ExecResult{TopK: finishTopK(s, o.K)}, nil
}

// execMulti runs the greedy multi-facility chain: each round is one MinMax
// Exec (sharing this call's Scratch, Recorder, and explorer cache — a
// Scratch reset makes sequential rounds safe), the winner joins the
// existing set, and selection stops early, with fewer than K answers, when
// no remaining candidate improves. The context threads into every round.
func execMulti(ctx context.Context, t *vip.Tree, q *Query, o Options) (ExecResult, error) {
	res := MultiResult{}
	existing := append([]indoor.PartitionID(nil), q.Existing...)
	remaining := append([]indoor.PartitionID(nil), q.Candidates...)
	round := Options{Objective: ObjMinMax, Recorder: o.Recorder, Scratch: o.Scratch, explorers: o.explorers}
	for i := 0; i < o.K && len(remaining) > 0; i++ {
		sub := &Query{Existing: existing, Candidates: remaining, Clients: q.Clients}
		// Call the MinMax runner directly (not Exec) — the sub-query is
		// never empty inside the loop, and a direct call keeps the dispatch
		// table free of an initialization cycle.
		er, err := execMinMax(ctx, t, sub, round)
		if err != nil {
			return ExecResult{}, err
		}
		r := er.MinMax
		res.Stats.DistanceCalcs += r.Stats.DistanceCalcs
		res.Stats.Retrievals += r.Stats.Retrievals
		res.Stats.QueuePops += r.Stats.QueuePops
		res.Stats.PrunedClients += r.Stats.PrunedClients
		if !r.Found {
			break
		}
		res.Answers = append(res.Answers, r.Answer)
		res.PerStep = append(res.PerStep, r.Objective)
		existing = append(existing, r.Answer)
		kept := remaining[:0]
		for _, c := range remaining {
			if c != r.Answer {
				kept = append(kept, c)
			}
		}
		remaining = kept
	}
	if len(res.PerStep) > 0 {
		res.Objective = res.PerStep[len(res.PerStep)-1]
	} else {
		res.Objective = noMultiResult().Objective
	}
	return ExecResult{Multi: res}, nil
}
