package core

import (
	"context"
	"math"
	"time"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/pq"
	"github.com/indoorspatial/ifls/internal/vip"
)

// probe is the per-run instrumentation every solver shares: the work
// counters, the cancellation checkpoint, and the span recorder.
type probe struct {
	stats Stats

	// ctx is non-nil only when the run's context is cancellable
	// (ctx.Done() != nil); checkpoints are skipped entirely otherwise. err
	// records the first observed cancellation.
	ctx context.Context
	err error

	// rec is the per-query span recorder; nil when observability is
	// disabled, in which case every hook site is a single nil comparison
	// and the run allocates exactly as much as an unobserved one.
	// obsStart anchors the spans' monotonic Elapsed offsets.
	rec      obs.Recorder
	obsStart time.Time
}

// bind resets the counters, arms the cancellation checkpoints, and attaches
// the recorder. Background-like contexts (Done() == nil) are not stored:
// they can never cancel, so the run skips checkpoint work entirely. A nil
// recorder leaves the run on the exact unobserved code path.
func (p *probe) bind(ctx context.Context, rec obs.Recorder) {
	*p = probe{}
	if ctx != nil && ctx.Done() != nil {
		p.ctx = ctx
	}
	if rec != nil {
		p.rec = rec
		p.obsStart = time.Now()
	}
}

// cancelled is the cancellation checkpoint: it polls the bound context and
// latches the first error into p.err. With no cancellable context bound it
// is a single nil comparison.
func (p *probe) cancelled() bool {
	if p.ctx == nil {
		return false
	}
	if p.err != nil {
		return true
	}
	if err := p.ctx.Err(); err != nil {
		p.err = faults.Cancelled(err)
		return true
	}
	return false
}

// emit sends one span event, with a snapshot of the counters, to the bound
// recorder. Callers on hot paths guard with p.rec != nil so the disabled
// path never pays the call.
func (p *probe) emit(stage obs.Stage, gd float64) {
	if p.rec == nil {
		return
	}
	p.rec.Event(obs.Span{
		Stage:         stage,
		Elapsed:       time.Since(p.obsStart),
		DistanceCalcs: p.stats.DistanceCalcs,
		Retrievals:    p.stats.Retrievals,
		QueuePops:     p.stats.QueuePops,
		PrunedClients: p.stats.PrunedClients,
		Gd:            gd,
	})
}

// eaEntry is a traversal queue entry: a client partition paired with either
// a tree node or a facility partition.
type eaEntry struct {
	part  indoor.PartitionID // client partition p
	node  vip.NodeID
	fac   indoor.PartitionID
	isFac bool
}

// traversal is the paper's bottom-up best-first VIP-tree search (Algorithm
// 3), the one machinery every efficient objective runs; the objectives
// (eaState for MinMax/TopK, extState for MinDist/MaxSum) embed it and add
// only their scoring:
//
//   - Existing facilities and candidates are indexed together on one
//     VIP-tree. Clients are grouped by partition: the queue holds
//     (partition, entity) pairs keyed by iMinD, and one Explorer per
//     partition serves every client in it (per-client values differ only
//     in door offsets, which realizes the paper's single-door fast path
//     for free).
//   - Gd, the priority of the last dequeued entry, is the global bound:
//     every facility within Gd of a client partition has been retrieved.
//     A round pops every entry tied at Gd before the objective evaluates
//     the bound.
//   - A client whose nearest retrieved existing facility is within the
//     bound leaves C (Lemma 5.1); no further retrievals or distance
//     computations are spent on it.
//
// The driving loop belongs to each objective and reaches the shared steps
// by direct calls: group and seed in the preamble, then nextBound/next per
// round and nextPruned per bound.
//
// All state is flat and ID-indexed: facility roles, candidate indexes,
// per-partition client lists, and visited-node marks live in dense
// epoch-stamped columns on the backing Scratch. The state is call-local
// over a read-only tree and query, so concurrent runs (on the same or
// different trees) are safe without synchronization.
type traversal struct {
	probe

	t *vip.Tree
	q *Query

	active      []bool
	activeCount int
	offsets     [][]float64
	bestExist   []float64 // nearest retrieved existing facility per client
	// cands is the deduplicated candidate list in query order; the
	// Scratch's partCand column maps a candidate partition to its index.
	cands []indoor.PartitionID

	queue *pq.Bucket[eaEntry]
	// pruneHeap orders clients by their best retrieved existing-facility
	// distance (lazy entries; stale ones are skipped), so pruning costs
	// O(pruned) amortized instead of a full scan per bound advance.
	pruneHeap *pq.Bucket[int32]
	gd        float64

	// sc is the backing Scratch: the caller's pooled one, or a run-private
	// one when none was supplied — both run the same code path.
	sc *Scratch
	// cache resolves partitions to explorers: the Scratch's run-local
	// cache, or Session's persistent one.
	cache *explorerCache
	// curPart is the source partition of the node being expanded; it
	// routes the vip.Frontier hook calls back to the right traversal.
	curPart indoor.PartitionID
}

// reset prepares the traversal for one run of q over t, backed by sc:
// claims the Scratch, applies the Options' explorer cache, context and
// recorder, marks the facility roles, and activates every client. Dense
// columns reset by epoch bump, slices by truncation — lengths reset,
// capacity retained.
func (s *traversal) reset(ctx context.Context, t *vip.Tree, q *Query, o Options, sc *Scratch) {
	m := len(q.Clients)
	s.probe.bind(ctx, o.Recorder)
	s.t, s.q, s.sc = t, q, sc
	sc.claim(t)
	s.cache = &sc.explorers
	if o.explorers != nil {
		s.cache = o.explorers
	}
	s.active = resize(s.active, m)
	s.activeCount = m
	s.offsets = resizeLists(s.offsets, m)
	s.bestExist = resize(s.bestExist, m)
	s.cands = resize(s.cands, len(q.Candidates))[:0]
	s.queue, s.pruneHeap = &sc.queue, &sc.pruneHeap
	s.gd = 0
	for _, f := range q.Existing {
		sc.markPart(f, pfExist)
	}
	for _, f := range q.Candidates {
		if !sc.partHas(f, pfCand) {
			sc.markPart(f, pfCand)
			sc.partCand[f] = int32(len(s.cands))
			s.cands = append(s.cands, f)
		}
	}
	inf := math.Inf(1)
	for i := range q.Clients {
		s.active[i] = true
		s.bestExist[i] = inf
	}
}

func (s *traversal) explorer(p indoor.PartitionID) *vip.Explorer {
	return s.cache.get(s.t, p)
}

// noteExisting records an existing-facility retrieval for client ci: a new
// nearest distance queues a live prune-heap key.
func (s *traversal) noteExisting(ci int32, d float64) {
	if d < s.bestExist[ci] {
		s.bestExist[ci] = d
		s.pruneHeap.Push(ci, d)
	}
}

// distance computes client ci's exact distance to facility partition f from
// the client's own partition p, counting one distance calculation.
func (s *traversal) distance(p indoor.PartitionID, ci int32, f indoor.PartitionID) float64 {
	s.stats.DistanceCalcs++
	return s.explorer(p).PointToPartition(s.offsets[ci], f)
}

// group ends the run preamble: every client still active after the
// distance-zero retrievals joins its partition's list C'[p] and gets its
// door offsets.
func (s *traversal) group() {
	for ci, c := range s.q.Clients {
		if s.active[ci] {
			s.sc.addClient(c.Part, int32(ci))
			s.offsets[ci] = s.explorer(c.Part).PointOffsetsAppend(s.offsets[ci][:0], c.Loc)
		}
	}
	if s.rec != nil {
		s.emit(obs.StageLocate, 0)
	}
}

// seed queues each populated partition's leaf node at priority zero, in
// client order (the touched-partition list preserves first-client order,
// so seeding is deterministic and every counter downstream is too).
func (s *traversal) seed() {
	for _, pp := range s.sc.parts {
		p := indoor.PartitionID(pp)
		if len(s.sc.clientsOf[p]) == 0 {
			continue
		}
		leaf := s.t.Leaf(p)
		s.sc.visit(p, leaf)
		s.queue.Push(eaEntry{part: p, node: leaf}, 0)
	}
}

// nextBound starts the next round: Gd advances to the smallest queued
// priority. It reports false once the queue is exhausted.
func (s *traversal) nextBound() bool {
	if s.queue.Empty() {
		return false
	}
	_, s.gd = s.queue.Peek()
	return true
}

// next pops the entries tied at Gd — so "retrieved within Gd" includes ties
// at Gd — expanding tree nodes in place, and returns each facility entry
// whose source partition still has clients, for the objective to retrieve.
// It returns false at the end of the round, after one queue_pop span, or
// when a checkpoint (one per pop) observes cancellation, with s.err set.
func (s *traversal) next() (eaEntry, bool) {
	for !s.queue.Empty() {
		if _, p := s.queue.Peek(); p > s.gd {
			break
		}
		if s.cancelled() {
			return eaEntry{}, false
		}
		e, _ := s.queue.Pop()
		s.stats.QueuePops++
		if len(s.sc.clientsOf[e.part]) == 0 {
			continue
		}
		if e.isFac {
			return e, true
		}
		// Tree.Expand applies the expansion rule: parent, then leaf
		// partitions or children — the order determinism relies on.
		s.curPart = e.part
		s.t.Expand(s.explorer(e.part), e.part, e.node, s)
	}
	if s.rec != nil {
		s.emit(obs.StageQueuePop, s.gd)
	}
	return eaEntry{}, false
}

// nextPruned applies Lemma 5.1 at the given bound, one client per call: a
// client whose retrieved nearest existing facility is within the bound
// cannot be improved by any candidate, so it leaves C and is returned for
// the objective to settle. It reports false when no live key within the
// bound remains.
//
// Entries are lazy: every bestExist improvement pushes a fresh key, so the
// heap may hold several per client. A client is pruned only against its
// live key (the one equal to its current bestExist) — a stale larger key
// popped later is skipped, never used as pruning evidence. The live key is
// always present for an active client because pops happen only here and a
// popped live key prunes immediately.
func (s *traversal) nextPruned(bound float64) (int32, bool) {
	for !s.pruneHeap.Empty() {
		if _, d := s.pruneHeap.Peek(); d > bound {
			break
		}
		ci, d := s.pruneHeap.Pop()
		if !s.active[ci] || d != s.bestExist[ci] {
			continue // stale key: re-pushed smaller, or already pruned
		}
		s.active[ci] = false
		s.activeCount--
		s.stats.PrunedClients++
		if s.rec != nil {
			s.emit(obs.StagePrune, s.gd)
		}
		s.sc.removeClient(s.q.Clients[ci].Part, ci)
		return ci, true
	}
	return 0, false
}

// traversalBytes estimates the shared state the run holds: explorer
// distance vectors, visited-node stamps, and the live traversal queue.
func (s *traversal) traversalBytes() int {
	return s.cache.retainedBytes() + s.sc.visitCount*4 + s.queue.Len()*32
}

// traversal implements vip.Frontier for the source partition of the node
// being expanded (curPart): Tree.Expand drives the expansion rule and these
// hooks queue the resulting nodes and facility partitions.

// Visit marks a node visited for the current source partition.
func (s *traversal) Visit(n vip.NodeID) bool { return s.sc.visit(s.curPart, n) }

// PushNode enqueues a tree node for the current source partition.
func (s *traversal) PushNode(n vip.NodeID, prio float64) {
	s.queue.Push(eaEntry{part: s.curPart, node: n}, prio)
}

// Wanted reports whether a facility partition participates in the query.
func (s *traversal) Wanted(f indoor.PartitionID) bool {
	return s.sc.partFlags(f)&(pfExist|pfCand) != 0
}

// PushFacility enqueues a facility partition for the current source.
func (s *traversal) PushFacility(f indoor.PartitionID, prio float64) {
	s.queue.Push(eaEntry{part: s.curPart, fac: f, isFac: true}, prio)
}
