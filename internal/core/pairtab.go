package core

import "github.com/indoorspatial/ifls/internal/pq"

// pairPC is one retrieved (client, candidate) pair, stored in the owning
// client's pair list: the candidate index, the exact distance, and whether
// the pair's contribution has already been settled by a bound advance.
type pairPC struct {
	cand int32
	done bool
	dist float64
}

// pendPair indexes a pairPC awaiting settlement: the client and the pair's
// position in that client's list, so draining can flip done in place.
type pendPair struct {
	client int32
	idx    int32
}

// pairTab is the per-client candidate bookkeeping shared by the MinDist and
// MaxSum objectives (both settle each (client, candidate) pair exactly once,
// either when the global bound passes the pair's distance or when the client
// is pruned). It replaces the two per-strategy map sets the objectives used
// to duplicate with flat pair lists plus one candidate-indexed scratch row:
//
//   - pairs[ci] appends each retrieved pair once — the traversal retrieves
//     every (client, candidate) pair at most once (node visits dedup per
//     source and each facility lives in one leaf), so no dedup map is
//     needed;
//   - pending orders unsettled pairs by distance (monotone in the global
//     bound, so the bucket queue's O(1) path applies);
//   - the row* columns are a tick-stamped dense row over candidate indexes,
//     loaded per pruned client so its settle loop runs in O(nc + pairs)
//     without any map lookups.
type pairTab struct {
	m, nc      int
	pairs      [][]pairPC
	clientDone []bool
	pending    *pq.Bucket[pendPair]

	rowDist  []float64
	rowDone  []bool
	rowStamp []uint32
	rowTick  uint32
}

// reset prepares the table for m clients and nc deduplicated candidates,
// wiring the run's pending queue (reset by Scratch.claim). Pair lists
// truncate in place, capacity retained up to the Scratch trim bounds.
func (pt *pairTab) reset(m, nc int, pending *pq.Bucket[pendPair]) {
	pt.m, pt.nc = m, nc
	pt.pending = pending
	pt.pairs = resizeLists(pt.pairs, m)
	pt.clientDone = resize(pt.clientDone, m)
	pt.rowDist = resize(pt.rowDist, nc)
	pt.rowDone = resize(pt.rowDone, nc)
	pt.rowStamp = resize(pt.rowStamp, nc)
	pt.rowTick = 0
}

// add records a retrieved pair and queues it for settlement at its distance.
func (pt *pairTab) add(ci, k int, d float64) {
	idx := int32(len(pt.pairs[ci]))
	pt.pairs[ci] = append(pt.pairs[ci], pairPC{cand: int32(k), dist: d})
	pt.pending.Push(pendPair{client: int32(ci), idx: idx}, d)
}

// stampRow loads client ci's pairs into the candidate-indexed row under a
// fresh tick; rowHas then answers "was this candidate retrieved for ci" in
// O(1). Ticks are per-run (reset zeroes them), so they cannot wrap.
func (pt *pairTab) stampRow(ci int) {
	pt.rowTick++
	for _, pr := range pt.pairs[ci] {
		pt.rowDist[pr.cand] = pr.dist
		pt.rowDone[pr.cand] = pr.done
		pt.rowStamp[pr.cand] = pt.rowTick
	}
}

// rowHas reports whether candidate k was loaded by the current stampRow.
func (pt *pairTab) rowHas(k int) bool { return pt.rowStamp[k] == pt.rowTick }

// drain settles every pending pair with distance <= gd whose client is still
// undecided, invoking settle(candIdx, dist) for each. Pairs of already-done
// clients (settled wholesale by clientPruned) are skipped.
func (pt *pairTab) drain(gd float64, settle func(k int, d float64)) {
	for !pt.pending.Empty() {
		if _, d := pt.pending.Peek(); d > gd {
			return
		}
		p, d := pt.pending.Pop()
		pr := &pt.pairs[p.client][p.idx]
		if pt.clientDone[p.client] || pr.done {
			continue
		}
		pr.done = true
		settle(int(pr.cand), d)
	}
}

// retainedBytes estimates the table's live memory: the pair lists plus the
// pending queue entries.
func (pt *pairTab) retainedBytes() int {
	total := 0
	for ci := range pt.pairs {
		total += len(pt.pairs[ci]) * 16
	}
	return total + pt.pending.Len()*24
}
