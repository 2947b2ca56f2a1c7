package core

import (
	"context"
	"math"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/pq"
	"github.com/indoorspatial/ifls/internal/vip"
)

// eaEvent is a retrieved (client, facility, distance) triple; events drive
// the d_low stepping.
type eaEvent struct {
	client int32
	fac    indoor.PartitionID
	isCand bool
	dist   float64
}

// eaState answers an ObjMinMax (and ObjTopK) query with the paper's
// efficient approach (Algorithms 2 and 3): the shared bottom-up traversal
// finds the nearest facilities of all clients incrementally, and this
// objective turns its retrievals into the MinMax answer:
//
//   - once every remaining client has at least one retrieved facility
//     (isFirst), the verified horizon d_low advances through the retrieved
//     distances in sorted steps (increaseDist), pruning clients and checking
//     after each step whether some candidate now covers every remaining
//     client within d_low. The first covering candidate is the answer and
//     d_low is the exact objective value.
//
// Its per-client and per-candidate columns live on the backing Scratch
// beside the traversal's, and the stepping loops run on monotone bucket
// queues.
//
// Cancellation: run checks the bound context at every queue dequeue and
// every d_low step, so a cancel or deadline returns a faults.Cancelled error
// (wrapping ctx.Err()) within a bounded number of per-partition retrievals.
type eaState struct {
	traversal

	// Per-client knowledge.
	minRetrieved []float64 // nearest retrieved facility of any kind
	candCount    []int32   // retrieved candidate pairs (memory metric)
	activated    [][]int32 // candidate indexes activated (dist <= dlow)

	// Per-candidate coverage at the current d_low, indexed like
	// traversal.cands.
	covered []int32 // number of active clients with activated pair
	// maxCovered upper-bounds max(covered); checkAnswer skips its scan
	// while maxCovered < activeCount. Stale after pruning, which only
	// costs an occasional wasted scan.
	maxCovered int32

	events *pq.Bucket[eaEvent]

	// satHeap orders clients by their best retrieved distance of any
	// kind; unsatisfied counts active clients with nothing retrieved
	// within the bound yet, making checkList O(1) amortized.
	satHeap     *pq.Bucket[int32]
	satisfied   []bool
	unsatisfied int

	dlow    float64
	isFirst bool

	// Top-k mode (ObjTopK): when topK > 0 the run records every
	// covering candidate with its exact objective instead of stopping at
	// the first.
	topK   int
	ranked []RankedCandidate
}

// newEAState resets the MinMax state held by o.Scratch (a private Scratch is
// created when it is nil, so fresh and pooled runs share one code path) and
// binds the run's context, recorder and explorer cache. Result-bearing
// slices (ranked) are never pooled because they escape to the caller.
func newEAState(ctx context.Context, t *vip.Tree, q *Query, o Options) *eaState {
	sc := o.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	m := len(q.Clients)
	s := &sc.ea
	s.traversal.reset(ctx, t, q, o, sc)
	s.minRetrieved = resize(s.minRetrieved, m)
	s.candCount = resize(s.candCount, m)
	s.activated = resizeLists(s.activated, m)
	s.covered = resize(s.covered, len(s.cands))
	s.maxCovered = 0
	s.events, s.satHeap = &sc.events, &sc.satHeap
	s.satisfied = resize(s.satisfied, m)
	s.dlow = 0
	s.isFirst = false
	s.topK = 0
	s.ranked = nil // escapes via finishTopK; never pooled
	s.unsatisfied = m
	inf := math.Inf(1)
	for i := range q.Clients {
		s.minRetrieved[i] = inf
	}
	return s
}

// retrieve records facility f for client ci at distance d. The traversal
// retrieves each (client, facility) pair exactly once — Visit dedups nodes
// per source and every facility lives in exactly one leaf — so the event
// pushes need no per-pair dedup.
func (s *eaState) retrieve(ci int32, f indoor.PartitionID, d float64) {
	s.stats.Retrievals++
	if d < s.minRetrieved[ci] {
		s.minRetrieved[ci] = d
		if !s.satisfied[ci] {
			s.satHeap.Push(ci, d)
		}
	}
	fl := s.sc.partFlags(f)
	if fl&pfExist != 0 {
		s.noteExisting(ci, d)
		s.events.Push(eaEvent{client: ci, fac: f, dist: d}, d)
	}
	if fl&pfCand != 0 {
		s.candCount[ci]++
		s.events.Push(eaEvent{client: ci, fac: f, isCand: true, dist: d}, d)
	}
}

// prune applies Lemma 5.1 at the given bound (see traversal.nextPruned) and
// rolls each pruned client's activations out of the candidate coverage
// counters.
func (s *eaState) prune(bound float64) {
	for ci, ok := s.nextPruned(bound); ok; ci, ok = s.nextPruned(bound) {
		if !s.satisfied[ci] {
			s.satisfied[ci] = true
			s.unsatisfied--
		}
		for _, k := range s.activated[ci] {
			s.covered[k]--
		}
	}
}

// checkList reports whether every remaining client has retrieved at least
// one facility within the bound.
func (s *eaState) checkList(bound float64) bool {
	for !s.satHeap.Empty() {
		if _, d := s.satHeap.Peek(); d > bound {
			break
		}
		ci, _ := s.satHeap.Pop()
		if !s.satisfied[ci] {
			s.satisfied[ci] = true
			s.unsatisfied--
		}
	}
	return s.unsatisfied == 0
}

// drainEvents activates all retrieved pairs with distance <= bound:
// candidate coverage counters advance, and the events are consumed in
// ascending distance order.
func (s *eaState) drainEvents(bound float64) {
	for !s.events.Empty() {
		if _, d := s.events.Peek(); d > bound {
			return
		}
		ev, _ := s.events.Pop()
		s.activate(ev)
	}
}

func (s *eaState) activate(ev eaEvent) {
	if !ev.isCand || !s.active[ev.client] {
		return
	}
	// Only the first (smallest) event per pair counts; later duplicates
	// for the same pair are impossible because retrieval happens once per
	// (partition, facility) dequeue.
	k := s.sc.partCand[ev.fac]
	s.covered[k]++
	if s.covered[k] > s.maxCovered {
		s.maxCovered = s.covered[k]
	}
	s.activated[ev.client] = append(s.activated[ev.client], k)
}

// checkAnswer looks for a candidate covering every remaining client within
// the bound. Every covering candidate at the first such bound is an exact
// objective tie: its remaining clients are within d_low, every pruned
// client contributes at most its nearest-existing distance <= d_low, and no
// candidate can be below the optimum d_low — so the objective of each is
// exactly d_low. Among these ties the lowest candidate ID wins, the
// tie-break every answer path shares (see internal/difftest). Selecting by
// smallest max-distance-to-remaining-clients instead (as this scan once
// did) picks an arbitrary member of the tie class: the remaining-client
// maximum ignores the pruned clients that actually pin the objective, as
// the CPH tie in difftest.TestCPHTieBreakParity demonstrates.
func (s *eaState) checkAnswer(bound float64) (indoor.PartitionID, bool) {
	if s.activeCount == 0 {
		// Every client is within bound of an existing facility: no
		// candidate strictly improves the objective.
		return indoor.NoPartition, true
	}
	if s.maxCovered < int32(s.activeCount) {
		// No candidate can cover every remaining client yet; skip the
		// scan. maxCovered is a stale upper bound, so this only ever
		// skips scans that would find nothing.
		return indoor.NoPartition, false
	}
	best := indoor.NoPartition
	for k, n := range s.cands {
		if s.covered[k] != int32(s.activeCount) {
			continue
		}
		if best == indoor.NoPartition || n < best {
			best = n
		}
	}
	if best != indoor.NoPartition {
		return best, true
	}
	return indoor.NoPartition, false
}

// step advances d_low to the next retrieved distance in (d_low, gd],
// activating the pairs at that distance. It reports whether a step was
// taken.
func (s *eaState) step() bool {
	for !s.events.Empty() {
		if _, d := s.events.Peek(); d > s.gd {
			return false
		}
		ev, d := s.events.Pop()
		s.activate(ev)
		if d > s.dlow {
			s.dlow = d
			// Consume ties at the same distance so prune/checkAnswer see
			// a consistent horizon.
			for !s.events.Empty() {
				if _, nd := s.events.Peek(); nd > d {
					break
				}
				ev2, _ := s.events.Pop()
				s.activate(ev2)
			}
			return true
		}
	}
	return false
}

func (s *eaState) run() (Result, error) {
	q := s.q
	if len(q.Clients) == 0 || len(q.Candidates) == 0 {
		return noResult(), nil
	}
	if s.cancelled() {
		return Result{}, s.err
	}

	// Algorithm 2 preamble: a client inside a facility partition retrieves
	// it at distance zero.
	for ci, c := range q.Clients {
		if s.Wanted(c.Part) {
			s.retrieve(int32(ci), c.Part, 0)
		}
	}
	s.prune(0)
	s.group()
	s.isFirst = s.checkList(0)
	if s.isFirst {
		s.drainEvents(0)
		if r, done := s.answerCheck(); done {
			return r, nil
		}
	}

	// Algorithm 3: the bottom-up traversal, one round per global bound Gd.
	s.seed()
	for s.nextBound() {
		for e, ok := s.next(); ok; e, ok = s.next() {
			for _, ci := range s.sc.clientsOf[e.part] {
				s.retrieve(ci, e.fac, s.distance(e.part, ci, e.fac))
			}
		}
		if s.err != nil {
			return Result{}, s.err
		}

		if !s.isFirst {
			s.isFirst = s.checkList(s.gd)
			if s.isFirst {
				// First transition to the stepping phase: pairs at or
				// below the current horizon d_low must be activated and
				// answer-checked here, exactly as the preamble does at
				// d_low = 0. step only reports progress when d_low
				// strictly advances, so a candidate retrieved at
				// d == d_low (e.g. a client standing at the door of a
				// candidate partition, Gd = 0) would otherwise be
				// activated silently and its coverage never checked
				// before later pruning rolls it back.
				s.prune(s.dlow)
				s.drainEvents(s.dlow)
				if r, done := s.answerCheck(); done {
					return r, nil
				}
			}
		}
		if !s.isFirst {
			s.prune(s.gd)
			s.drainEvents(s.gd)
			s.dlow = s.gd
			if s.activeCount == 0 {
				return s.finish(indoor.NoPartition), nil
			}
			continue
		}
		for s.step() {
			if s.cancelled() {
				return Result{}, s.err
			}
			s.prune(s.dlow)
			if r, done := s.answerCheck(); done {
				return r, nil
			}
		}
	}

	// Queue exhausted: everything is retrieved; finish the stepping with
	// an unbounded horizon.
	s.gd = math.Inf(1)
	if !s.isFirst {
		s.isFirst = s.checkList(s.gd)
	}
	for s.step() {
		if s.cancelled() {
			return Result{}, s.err
		}
		s.prune(s.dlow)
		if r, done := s.answerCheck(); done {
			return r, nil
		}
	}
	s.prune(math.Inf(1))
	return s.finish(indoor.NoPartition), nil
}

// answerCheck evaluates the stop condition at the current d_low: in normal
// mode the first covering candidate ends the search; in top-k mode covering
// candidates accumulate until k are ranked.
func (s *eaState) answerCheck() (Result, bool) {
	if s.rec != nil {
		s.emit(obs.StageAnswerCheck, s.dlow)
	}
	if s.topK > 0 {
		if s.collectCovering() {
			return Result{}, true
		}
		return Result{}, false
	}
	if a, ok := s.checkAnswer(s.dlow); ok {
		return s.finish(a), true
	}
	return Result{}, false
}

// retainedBytes estimates the solver's simultaneously-held state: the
// traversal's, per-client retrieval bookkeeping (each retrieved candidate
// pair transits the event queue as a 16-byte record), the event queue, and
// one coverage counter per listed candidate.
func (s *eaState) retainedBytes() int {
	total := s.traversalBytes()
	const pairEntry = 16
	for ci := range s.q.Clients {
		total += int(s.candCount[ci])*pairEntry + len(s.activated[ci])*4 + len(s.offsets[ci])*8 + 64
	}
	total += s.events.Len() * 40
	total += len(s.q.Candidates) * 4
	return total
}

func (s *eaState) finish(answer indoor.PartitionID) Result {
	res := Result{Answer: answer, Stats: s.stats}
	res.Stats.RetainedBytes = s.retainedBytes()
	if answer == indoor.NoPartition {
		res.Objective = math.NaN()
		return res
	}
	res.Found = true
	res.Objective = s.dlow
	// d_low equals the chosen candidate's exact objective, except in the
	// degenerate case where the answer was found during the preamble
	// (every remaining client sits inside the candidate partition).
	if s.dlow == 0 {
		res.Objective = 0
	}
	return res
}
