package difftest

import (
	"context"
	"fmt"
	"math"

	"github.com/indoorspatial/ifls/internal/batch"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/vip"
)

// Mismatch describes one disagreement between answer paths. Path names the
// pair that disagreed (e.g. "fresh-vs-scratch", "engine-vs-oracle").
type Mismatch struct {
	Obj    core.Objective
	Path   string
	Detail string
}

// String formats the mismatch as "objective: path: detail" for reports.
func (m *Mismatch) String() string {
	return fmt.Sprintf("%s: %s: %s", m.Obj, m.Path, m.Detail)
}

// Env is the per-venue machinery the differential runner drives: the
// VIP-tree, the Dijkstra graph, a warm Session, and a pooled Scratch that
// are deliberately reused across Check calls to stress state reuse.
type Env struct {
	Venue   *indoor.Venue
	Tree    *vip.Tree
	Graph   *d2d.Graph
	Session *core.Session
	Scratch *core.Scratch
}

// NewEnv builds the answer-path machinery for one venue.
func NewEnv(v *indoor.Venue) *Env {
	t := vip.MustBuild(v, vip.DefaultOptions())
	return &Env{
		Venue:   v,
		Tree:    t,
		Graph:   d2d.New(v),
		Session: core.NewSession(t),
		Scratch: core.NewScratch(),
	}
}

// CheckCase runs one Case through every answer path and reports the first
// disagreement, or nil when all paths agree. It builds a fresh Env; use an
// Env's Check method to amortize index construction across workloads.
func CheckCase(c Case) *Mismatch {
	return NewEnv(c.Venue).Check(c.Query, c.Obj, c.K)
}

// Check answers q under obj through all paths and cross-compares. K is the
// result count for topk and the facility count for multi (ignored
// otherwise). A nil return means every path agreed.
func (e *Env) Check(q *core.Query, obj core.Objective, k int) (m *Mismatch) {
	defer func() {
		if p := recover(); p != nil {
			m = &Mismatch{Obj: obj, Path: "panic", Detail: fmt.Sprint(p)}
		}
	}()
	if err := q.Validate(e.Venue); err != nil {
		return &Mismatch{Obj: obj, Path: "validate", Detail: err.Error()}
	}
	switch obj {
	case core.ObjMinMax, core.ObjBaseline:
		return e.checkMinMax(q, obj)
	case core.ObjMinDist:
		return e.checkMinDist(q)
	case core.ObjMaxSum:
		return e.checkMaxSum(q)
	case core.ObjTopK:
		return e.checkTopK(q, k)
	case core.ObjMulti:
		return e.checkMulti(q, k)
	}
	return &Mismatch{Obj: obj, Path: "dispatch", Detail: "unknown objective"}
}

// exec runs one engine path; an engine error is reported as a mismatch by
// the caller.
func (e *Env) exec(q *core.Query, o core.Options) (core.ExecResult, error) {
	return core.Exec(context.Background(), e.Tree, q, o)
}

// session runs one engine path through the warm Session.
func (e *Env) session(q *core.Query, o core.Options) (core.ExecResult, error) {
	return e.Session.Exec(context.Background(), q, o)
}

// runBatch pushes the query through batch.Execute, the serving path.
func (e *Env) runBatch(bq batch.Query) (batch.Result, error) {
	r := batch.Execute(context.Background(), e.Tree, bq, nil)
	return r, r.Err
}

func sameResult(a, b core.Result) bool {
	return a.Found == b.Found && a.Answer == b.Answer &&
		(a.Objective == b.Objective || (math.IsNaN(a.Objective) && math.IsNaN(b.Objective)))
}

func sameExt(a, b core.ExtResult) bool {
	return a.Improves == b.Improves && a.Answer == b.Answer &&
		(a.Objective == b.Objective || (math.IsNaN(a.Objective) && math.IsNaN(b.Objective)))
}

func sameRanking(a, b []core.RankedCandidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkMinMax cross-checks the MinMax (or Baseline) answer paths. The
// engine-internal paths must agree exactly; the oracle comparison follows
// the package's near-tie policy.
func (e *Env) checkMinMax(q *core.Query, obj core.Objective) *Mismatch {
	mm := func(path, detail string) *Mismatch { return &Mismatch{Obj: obj, Path: path, Detail: detail} }

	fresh, err := e.exec(q, core.Options{Objective: obj})
	if err != nil {
		return mm("fresh", err.Error())
	}
	scratch, err := e.exec(q, core.Options{Objective: obj, Scratch: e.Scratch})
	if err != nil {
		return mm("scratch", err.Error())
	}
	if !sameResult(fresh.MinMax, scratch.MinMax) {
		return mm("fresh-vs-scratch", fmt.Sprintf("%+v vs %+v", fresh.MinMax, scratch.MinMax))
	}
	if obj == core.ObjMinMax {
		sess, err := e.session(q, core.Options{Objective: obj})
		if err != nil {
			return mm("session", err.Error())
		}
		if !sameResult(fresh.MinMax, sess.MinMax) {
			return mm("fresh-vs-session", fmt.Sprintf("%+v vs %+v", fresh.MinMax, sess.MinMax))
		}
	}
	br, err := e.runBatch(batch.Query{Objective: obj, Query: q})
	if err != nil {
		return mm("batch", err.Error())
	}
	if !sameResult(fresh.MinMax, br.MinMax) {
		return mm("fresh-vs-batch", fmt.Sprintf("%+v vs %+v", fresh.MinMax, br.MinMax))
	}

	if obj == core.ObjMinMax {
		// Cross-solver: the baseline answers the same objective with an
		// independent algorithm over the same VIP arithmetic. Found must
		// agree, objectives must be near-tied, and a bit-equal objective
		// is an exact tie, where the shared lowest-ID rule makes the
		// winner unique — this is the check that catches a solver
		// breaking ties by anything other than candidate ID (the CPH
		// regression, TestCPHTieBreakParity).
		base, err := e.exec(q, core.Options{Objective: core.ObjBaseline})
		if err != nil {
			return mm("baseline", err.Error())
		}
		bl := base.MinMax
		if fresh.MinMax.Found != bl.Found {
			return mm("efficient-vs-baseline", fmt.Sprintf("Found %v vs %v", fresh.MinMax, bl))
		}
		if fresh.MinMax.Found {
			if !closeVal(fresh.MinMax.Objective, bl.Objective) {
				return mm("efficient-vs-baseline", fmt.Sprintf("objective %v vs %v", fresh.MinMax.Objective, bl.Objective))
			}
			if fresh.MinMax.Objective == bl.Objective && fresh.MinMax.Answer != bl.Answer {
				return mm("efficient-vs-baseline", fmt.Sprintf("exact objective tie %v but winners %d vs %d (lowest-ID rule broken)",
					fresh.MinMax.Objective, fresh.MinMax.Answer, bl.Answer))
			}
		}
	}

	or := newOracle(e.Graph, q)
	if m := e.checkMinMaxOracle(q, obj, "engine-vs-oracle", fresh.MinMax, or); m != nil {
		return m
	}
	// The in-package brute solver is itself an answer path: cross-check it
	// against the independent oracle matrix too.
	brute := core.SolveBrute(e.Graph, q)
	if m := e.checkMinMaxOracle(q, obj, "brute-vs-oracle", brute.Result, or); m != nil {
		return m
	}
	return nil
}

// checkMinMaxOracle applies the near-tie policy to one MinMax-shaped result:
// the reported objective must match the oracle's value for the reported
// winner, the winner must be within tolerance of the oracle optimum, and
// Found must match the oracle verdict unless the improvement margin is
// within tolerance.
func (e *Env) checkMinMaxOracle(q *core.Query, obj core.Objective, path string, r core.Result, or *oracle) *Mismatch {
	mm := func(detail string) *Mismatch { return &Mismatch{Obj: obj, Path: path, Detail: detail} }
	sq := or.statusQuoMax()
	_, bestVal := or.bestBy(or.minmaxObj, func(a, b float64) bool { return a < b })
	if r.Found {
		wobj, ok := or.objOf(r.Answer, or.minmaxObj)
		if !ok {
			return mm(fmt.Sprintf("winner %d is not a candidate", r.Answer))
		}
		if !closeVal(r.Objective, wobj) {
			return mm(fmt.Sprintf("objective %v but oracle computes %v for winner %d", r.Objective, wobj, r.Answer))
		}
		if !closeVal(wobj, bestVal) {
			return mm(fmt.Sprintf("winner %d objective %v but oracle optimum is %v", r.Answer, wobj, bestVal))
		}
		if !(wobj < sq+tol(sq)) {
			return mm(fmt.Sprintf("claimed improvement but winner objective %v >= status quo %v", wobj, sq))
		}
	} else {
		if bestVal < sq-tol(sq) {
			return mm(fmt.Sprintf("no answer but oracle optimum %v clearly improves status quo %v", bestVal, sq))
		}
	}
	return nil
}

func (e *Env) checkMinDist(q *core.Query) *Mismatch {
	const obj = core.ObjMinDist
	mm := func(path, detail string) *Mismatch { return &Mismatch{Obj: obj, Path: path, Detail: detail} }

	fresh, err := e.exec(q, core.Options{Objective: obj})
	if err != nil {
		return mm("fresh", err.Error())
	}
	scratch, err := e.exec(q, core.Options{Objective: obj, Scratch: e.Scratch})
	if err != nil {
		return mm("scratch", err.Error())
	}
	if !sameExt(fresh.Ext, scratch.Ext) {
		return mm("fresh-vs-scratch", fmt.Sprintf("%+v vs %+v", fresh.Ext, scratch.Ext))
	}
	sess, err := e.session(q, core.Options{Objective: obj})
	if err != nil {
		return mm("session", err.Error())
	}
	if !sameExt(fresh.Ext, sess.Ext) {
		return mm("fresh-vs-session", fmt.Sprintf("%+v vs %+v", fresh.Ext, sess.Ext))
	}
	br, err := e.runBatch(batch.Query{Objective: obj, Query: q})
	if err != nil {
		return mm("batch", err.Error())
	}
	if !sameExt(fresh.Ext, br.Ext) {
		return mm("fresh-vs-batch", fmt.Sprintf("%+v vs %+v", fresh.Ext, br.Ext))
	}

	or := newOracle(e.Graph, q)
	check := func(path string, ans indoor.PartitionID, total float64, improves bool) *Mismatch {
		wtotal, ok := or.objOf(ans, or.sumObj)
		if !ok {
			return mm(path, fmt.Sprintf("winner %d is not a candidate", ans))
		}
		if !closeVal(total, wtotal) {
			return mm(path, fmt.Sprintf("total %v but oracle computes %v for winner %d", total, wtotal, ans))
		}
		_, bestVal := or.bestBy(or.sumObj, func(a, b float64) bool { return a < b })
		if !closeVal(wtotal, bestVal) {
			return mm(path, fmt.Sprintf("winner %d total %v but oracle optimum is %v", ans, wtotal, bestVal))
		}
		sq := or.statusQuoSum()
		if improves && !(wtotal < sq+tol(sq)) {
			return mm(path, fmt.Sprintf("claimed improvement but total %v >= status quo %v", wtotal, sq))
		}
		if !improves && bestVal < sq-tol(sq) {
			return mm(path, fmt.Sprintf("no improvement claimed but oracle optimum %v clearly beats status quo %v", bestVal, sq))
		}
		return nil
	}
	if m := check("engine-vs-oracle", fresh.Ext.Answer, fresh.Ext.Objective, fresh.Ext.Improves); m != nil {
		return m
	}
	brute := core.SolveBruteMinDist(e.Graph, q)
	if m := check("brute-vs-oracle", brute.Answer, brute.Objective, brute.Improves); m != nil {
		return m
	}
	return nil
}

func (e *Env) checkMaxSum(q *core.Query) *Mismatch {
	const obj = core.ObjMaxSum
	mm := func(path, detail string) *Mismatch { return &Mismatch{Obj: obj, Path: path, Detail: detail} }

	fresh, err := e.exec(q, core.Options{Objective: obj})
	if err != nil {
		return mm("fresh", err.Error())
	}
	scratch, err := e.exec(q, core.Options{Objective: obj, Scratch: e.Scratch})
	if err != nil {
		return mm("scratch", err.Error())
	}
	if !sameExt(fresh.Ext, scratch.Ext) {
		return mm("fresh-vs-scratch", fmt.Sprintf("%+v vs %+v", fresh.Ext, scratch.Ext))
	}
	sess, err := e.session(q, core.Options{Objective: obj})
	if err != nil {
		return mm("session", err.Error())
	}
	if !sameExt(fresh.Ext, sess.Ext) {
		return mm("fresh-vs-session", fmt.Sprintf("%+v vs %+v", fresh.Ext, sess.Ext))
	}
	br, err := e.runBatch(batch.Query{Objective: obj, Query: q})
	if err != nil {
		return mm("batch", err.Error())
	}
	if !sameExt(fresh.Ext, br.Ext) {
		return mm("fresh-vs-batch", fmt.Sprintf("%+v vs %+v", fresh.Ext, br.Ext))
	}

	or := newOracle(e.Graph, q)
	// Knife-edge captures (distance equal to the nearest-existing distance
	// up to noise) may resolve either way, so each path's count must land in
	// the oracle's [certain, possible] band for its winner, and no candidate
	// may certainly beat the reported count.
	maxCertain := 0
	for j := range q.Candidates {
		if c, _ := or.captures(j); c > maxCertain {
			maxCertain = c
		}
	}
	check := func(path string, ans indoor.PartitionID, count float64, improves bool) *Mismatch {
		ji := -1
		for j, c := range q.Candidates {
			if c == ans {
				ji = j
				break
			}
		}
		if ji < 0 {
			return mm(path, fmt.Sprintf("winner %d is not a candidate", ans))
		}
		certain, possible := or.captures(ji)
		n := int(count)
		if n < certain || n > possible {
			return mm(path, fmt.Sprintf("winner %d count %d outside oracle band [%d, %d]", ans, n, certain, possible))
		}
		if n < maxCertain {
			return mm(path, fmt.Sprintf("winner %d count %d but some candidate certainly captures %d", ans, n, maxCertain))
		}
		if improves != (n > 0) {
			return mm(path, fmt.Sprintf("Improves=%v with count %d", improves, n))
		}
		return nil
	}
	if m := check("engine-vs-oracle", fresh.Ext.Answer, fresh.Ext.Objective, fresh.Ext.Improves); m != nil {
		return m
	}
	brute := core.SolveBruteMaxSum(e.Graph, q)
	if m := check("brute-vs-oracle", brute.Answer, brute.Objective, brute.Improves); m != nil {
		return m
	}
	return nil
}

func (e *Env) checkTopK(q *core.Query, k int) *Mismatch {
	const obj = core.ObjTopK
	mm := func(path, detail string) *Mismatch { return &Mismatch{Obj: obj, Path: path, Detail: detail} }

	fresh, err := e.exec(q, core.Options{Objective: obj, K: k})
	if err != nil {
		return mm("fresh", err.Error())
	}
	scratch, err := e.exec(q, core.Options{Objective: obj, K: k, Scratch: e.Scratch})
	if err != nil {
		return mm("scratch", err.Error())
	}
	if !sameRanking(fresh.TopK, scratch.TopK) {
		return mm("fresh-vs-scratch", fmt.Sprintf("%v vs %v", fresh.TopK, scratch.TopK))
	}
	sess, err := e.session(q, core.Options{Objective: obj, K: k})
	if err != nil {
		return mm("session", err.Error())
	}
	if !sameRanking(fresh.TopK, sess.TopK) {
		return mm("fresh-vs-session", fmt.Sprintf("%v vs %v", fresh.TopK, sess.TopK))
	}
	br, err := e.runBatch(batch.Query{Objective: obj, K: k, Query: q})
	if err != nil && k > 0 {
		return mm("batch", err.Error())
	}
	if err == nil && !sameRanking(fresh.TopK, br.TopK) {
		return mm("fresh-vs-batch", fmt.Sprintf("%v vs %v", fresh.TopK, br.TopK))
	}

	// Metamorphic: top-k with k = |Fn| is the full improving ranking, and
	// every smaller k must be its exact prefix.
	if k > 0 && k < len(q.Candidates) {
		full, err := e.exec(q, core.Options{Objective: obj, K: len(q.Candidates)})
		if err != nil {
			return mm("full-ranking", err.Error())
		}
		limit := k
		if len(full.TopK) < limit {
			limit = len(full.TopK)
		}
		if !sameRanking(fresh.TopK, full.TopK[:limit]) {
			return mm("prefix-metamorphic", fmt.Sprintf("top-%d %v is not a prefix of full ranking %v", k, fresh.TopK, full.TopK))
		}
	}

	or := newOracle(e.Graph, q)
	refs := or.ranking()
	sq := or.statusQuoMax()
	// Length band: candidates clearly improving must appear (up to k),
	// knife-edge ones may or may not.
	minLen, maxLen := 0, 0
	for _, r := range refs {
		if r.obj < sq-tol(sq) {
			minLen++
		}
		if r.obj < sq+tol(sq) {
			maxLen++
		}
	}
	if minLen > k {
		minLen = k
	}
	if maxLen > k {
		maxLen = k
	}
	got := fresh.TopK
	if len(got) < minLen || len(got) > maxLen {
		return mm("engine-vs-oracle", fmt.Sprintf("ranking length %d outside oracle band [%d, %d] (k=%d)", len(got), minLen, maxLen, k))
	}
	for i, rc := range got {
		wobj, ok := or.objOf(rc.Candidate, or.minmaxObj)
		if !ok {
			return mm("engine-vs-oracle", fmt.Sprintf("entry %d: %d is not a candidate", i, rc.Candidate))
		}
		if !closeVal(rc.Objective, wobj) {
			return mm("engine-vs-oracle", fmt.Sprintf("entry %d (%d): objective %v but oracle computes %v", i, rc.Candidate, rc.Objective, wobj))
		}
		if i > 0 && rc.Objective < got[i-1].Objective {
			return mm("engine-vs-oracle", fmt.Sprintf("ranking not sorted at %d: %v after %v", i, rc.Objective, got[i-1].Objective))
		}
		// Position check: the i-th entry must be within tolerance of the
		// oracle's i-th best objective (IDs may swap only inside a
		// tolerance-tied group).
		if i < len(refs) && !closeVal(wobj, refs[i].obj) {
			return mm("engine-vs-oracle", fmt.Sprintf("entry %d (%d) objective %v but oracle rank-%d objective is %v", i, rc.Candidate, wobj, i, refs[i].obj))
		}
	}
	return nil
}

func (e *Env) checkMulti(q *core.Query, k int) *Mismatch {
	const obj = core.ObjMulti
	mm := func(path, detail string) *Mismatch { return &Mismatch{Obj: obj, Path: path, Detail: detail} }

	fresh, err := e.exec(q, core.Options{Objective: obj, K: k})
	if err != nil {
		return mm("fresh", err.Error())
	}
	scratch, err := e.exec(q, core.Options{Objective: obj, K: k, Scratch: e.Scratch})
	if err != nil {
		return mm("scratch", err.Error())
	}
	sameMulti := func(a, b core.MultiResult) bool {
		if len(a.Answers) != len(b.Answers) || len(a.PerStep) != len(b.PerStep) {
			return false
		}
		for i := range a.Answers {
			if a.Answers[i] != b.Answers[i] {
				return false
			}
		}
		for i := range a.PerStep {
			if a.PerStep[i] != b.PerStep[i] {
				return false
			}
		}
		return a.Objective == b.Objective || (math.IsNaN(a.Objective) && math.IsNaN(b.Objective))
	}
	if !sameMulti(fresh.Multi, scratch.Multi) {
		return mm("fresh-vs-scratch", fmt.Sprintf("%+v vs %+v", fresh.Multi, scratch.Multi))
	}
	sess, err := e.session(q, core.Options{Objective: obj, K: k})
	if err != nil {
		return mm("session", err.Error())
	}
	if !sameMulti(fresh.Multi, sess.Multi) {
		return mm("fresh-vs-session", fmt.Sprintf("%+v vs %+v", fresh.Multi, sess.Multi))
	}
	br, err := e.runBatch(batch.Query{Objective: obj, K: k, Query: q})
	if err != nil {
		return mm("batch", err.Error())
	}
	if !sameMulti(fresh.Multi, br.Multi) {
		return mm("fresh-vs-batch", fmt.Sprintf("%+v vs %+v", fresh.Multi, br.Multi))
	}

	// Oracle greedy reference with resync: each engine pick must be within
	// tolerance of the round's oracle optimum; the simulation then continues
	// from the engine's own pick so later rounds stay comparable.
	or := newOracle(e.Graph, q)
	cur := append([]float64(nil), or.nn...)
	sqObj := or.statusQuoMax()
	excluded := map[int]bool{}
	for step, ans := range fresh.Multi.Answers {
		_, bestVal := or.greedyStep(cur, excluded)
		ji := -1
		for j, c := range q.Candidates {
			if c == ans && !excluded[j] {
				ji = j
				break
			}
		}
		if ji < 0 {
			return mm("engine-vs-oracle", fmt.Sprintf("step %d pick %d is not an available candidate", step, ans))
		}
		pickObj := 0.0
		for ci := range or.d {
			if d := math.Min(cur[ci], or.d[ci][or.ne+ji]); d > pickObj {
				pickObj = d
			}
		}
		if !closeVal(pickObj, bestVal) {
			return mm("engine-vs-oracle", fmt.Sprintf("step %d pick %d objective %v but oracle optimum is %v", step, ans, pickObj, bestVal))
		}
		if step < len(fresh.Multi.PerStep) && !closeVal(fresh.Multi.PerStep[step], pickObj) {
			return mm("engine-vs-oracle", fmt.Sprintf("step %d reported objective %v but oracle computes %v for pick %d", step, fresh.Multi.PerStep[step], pickObj, ans))
		}
		if !(pickObj < sqObj+tol(sqObj)) {
			return mm("engine-vs-oracle", fmt.Sprintf("step %d pick %d objective %v does not improve current status quo %v", step, ans, pickObj, sqObj))
		}
		or.applyPick(cur, ji)
		excluded[ji] = true
		sqObj = pickObj
	}
	// If the engine stopped early, no remaining candidate may clearly
	// improve on the chain's final objective.
	if len(fresh.Multi.Answers) < k && len(excluded) < len(q.Candidates) {
		_, bestVal := or.greedyStep(cur, excluded)
		if bestVal < sqObj-tol(sqObj) {
			return mm("engine-vs-oracle", fmt.Sprintf("stopped after %d picks but oracle finds further improvement %v < %v", len(fresh.Multi.Answers), bestVal, sqObj))
		}
	}
	return nil
}
