package core

import (
	"context"
	"math"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// ExtResult is the outcome of a MinDist or MaxSum query (Section 7
// extensions). A plain value owned by the caller.
type ExtResult struct {
	// Answer is the best candidate, NoPartition when the query has no
	// clients or no candidates.
	Answer indoor.PartitionID
	// Objective is the exact objective of Answer: the total
	// client-to-nearest-facility distance for MinDist, or the number of
	// captured clients for MaxSum.
	Objective float64
	// Improves reports whether Answer strictly improves over the status
	// quo (lower total for MinDist; at least one captured client for
	// MaxSum).
	Improves bool
	// Stats summarizes solver work.
	Stats Stats
}

// extObjective is the strategy a Section 7 variant plugs into the shared
// bottom-up traversal: it receives retrieval, bound-advance, and prune
// events, and decides when the answer is certain.
type extObjective interface {
	// retrieved reports an exact (client, candidate) distance, observed
	// while the client was still unpruned at global bound gd.
	retrieved(ci int, candIdx int, d, gd float64)
	// clientPruned reports that client ci left C with exact
	// nearest-existing distance dNN; the strategy settles the client's
	// contribution for every candidate.
	clientPruned(ci int, dNN float64)
	// boundAdvanced reports a new global bound.
	boundAdvanced(gd float64)
	// answer returns the best candidate index and whether it is certain
	// at bound gd.
	answer(gd float64) (int, bool)
	// retainedBytes estimates the objective's live bookkeeping memory.
	retainedBytes() int
}

// extState runs the shared bottom-up traversal (grouped clients, single
// VIP-tree over Fe ∪ Fn, Lemma 5.1 pruning) for a pluggable Section 7
// objective.
type extState struct {
	traversal
	obj extObjective
}

// newExtState resets the extension state held by o.Scratch (a private
// Scratch is created when it is nil) and binds the run's context, recorder
// and explorer cache; see newEAState for the reset contract. The objective
// is built over the returned state's Scratch and candidate list, then
// passed to run.
func newExtState(ctx context.Context, t *vip.Tree, q *Query, o Options) *extState {
	sc := o.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	s := &sc.ext
	s.traversal.reset(ctx, t, q, o, sc)
	s.obj = nil
	return s
}

func (s *extState) retrieve(ci int32, f indoor.PartitionID, d float64) {
	s.stats.Retrievals++
	fl := s.sc.partFlags(f)
	if fl&pfExist != 0 {
		s.noteExisting(ci, d)
	}
	if fl&pfCand != 0 {
		s.obj.retrieved(int(ci), int(s.sc.partCand[f]), d, s.gd)
	}
}

// prune applies Lemma 5.1 at the given bound (see traversal.nextPruned) and
// hands each pruned client's exact nearest-existing distance to the
// objective.
func (s *extState) prune(bound float64) {
	for ci, ok := s.nextPruned(bound); ok; ci, ok = s.nextPruned(bound) {
		s.obj.clientPruned(int(ci), s.bestExist[ci])
	}
}

// finalStats returns the run's counters with the memory metric: the
// traversal's simultaneously-held state plus the objective's pair
// bookkeeping.
func (s *extState) finalStats() Stats {
	st := s.stats
	st.RetainedBytes = s.traversalBytes() + len(s.bestExist)*8 + s.obj.retainedBytes()
	return st
}

// run drives the traversal for objective obj until it declares an answer.
// It returns the winning candidate index, or an error when the bound
// context was cancelled mid-traversal.
func (s *extState) run(obj extObjective) (int, error) {
	s.obj = obj
	if s.cancelled() {
		return -1, s.err
	}
	// Preamble: clients inside facility partitions retrieve them at
	// distance zero — routed through retrieve so the Retrievals counter
	// tallies the same events as the MinMax solver's preamble.
	for ci, c := range s.q.Clients {
		if s.Wanted(c.Part) {
			s.retrieve(int32(ci), c.Part, 0)
		}
	}
	s.prune(0)
	s.group()
	if k, ok := s.settle(0); ok {
		return k, nil
	}
	s.seed()
	for s.nextBound() {
		for e, ok := s.next(); ok; e, ok = s.next() {
			for _, ci := range s.sc.clientsOf[e.part] {
				s.retrieve(ci, e.fac, s.distance(e.part, ci, e.fac))
			}
		}
		if s.err != nil {
			return -1, s.err
		}
		s.prune(s.gd)
		if k, ok := s.settle(s.gd); ok {
			return k, nil
		}
	}
	// Everything retrieved: settle all remaining clients and decide.
	s.gd = math.Inf(1)
	s.prune(s.gd)
	k, _ := s.settle(s.gd)
	return k, nil
}

// settle reports bound gd to the objective and asks it for a certain answer.
func (s *extState) settle(gd float64) (int, bool) {
	s.obj.boundAdvanced(gd)
	if s.rec != nil {
		s.emit(obs.StageAnswerCheck, gd)
	}
	return s.obj.answer(gd)
}
