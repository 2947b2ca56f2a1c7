package core

import (
	"context"
	"math"
	"sort"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// solveBaseline answers an ObjBaseline query with the modified MinMax
// algorithm (Algorithm 1 of the paper): the road-network MinMax algorithm of
// Chen et al. adapted to indoor space. Fe and Fn are indexed as separate
// facility sets over the VIP-tree; each client's nearest existing facility
// is found with an individual top-down NN search, clients are processed in
// descending order of that distance, and the candidate answer set is
// refined with the paper's two pruning rules until it collapses or all
// clients have been considered.
//
// Every client is processed separately — the baseline performs one NN
// search per client and one standalone point-to-partition distance
// computation per examined (client, candidate) pair. That per-client cost
// is exactly the limitation the efficient approach removes.
//
// Cancellation: the context is polled once per client in the NN-search pass
// (step 1), once per candidate in the initial filter (step 2), once per
// client in the refinement loop (step 3), and once per surviving candidate
// in Find_Ans. A background (non-cancellable) context adds no work beyond a
// nil check per checkpoint.
//
// Work accounting charges the baseline on the same events as the
// efficient approach: every exact point-to-partition distance computation
// (including those inside each per-client NN search) counts one
// DistanceCalc, every NN-search dequeue one QueuePop, and every
// materialized (client, candidate) pair one Retrieval.
func solveBaseline(ctx context.Context, t *vip.Tree, q *Query, rec obs.Recorder) (Result, error) {
	m := len(q.Clients)
	if m == 0 || len(q.Candidates) == 0 {
		return noResult(), nil
	}
	// p polls ctx only when it can be cancelled, so the background-context
	// path is identical to the plain solver; its recorder hooks are guarded
	// by a nil comparison at each call site.
	var p probe
	p.bind(ctx, rec)
	feSet := vip.NewFacilitySet(t.Venue(), q.Existing)

	// Step 1: nearest existing facility for every client, sorted by
	// descending distance (the paper's list Ls). Each search's internal
	// exact distance computations and dequeues are charged to the query,
	// so Figure 1's cross-solver comparison counts the same events.
	type entry struct {
		client int
		dist   float64
	}
	var search vip.SearchStats
	var nn [1]vip.Neighbor // the 1-NN answer buffer, reused per client
	ls := make([]entry, m)
	for i, c := range q.Clients {
		if p.cancelled() {
			return Result{}, p.err
		}
		d := math.Inf(1)
		if res := t.Nearest(c.Loc, c.Part, feSet, 1, math.Inf(1), &search, nn[:0]); len(res) > 0 {
			d = res[0].Dist
		}
		ls[i] = entry{client: i, dist: d}
		if p.rec != nil {
			p.stats.DistanceCalcs = search.DistanceCalcs
			p.stats.QueuePops = search.QueuePops
			p.emit(obs.StageLocate, d)
			p.emit(obs.StageQueuePop, d)
		}
	}
	p.stats.DistanceCalcs = search.DistanceCalcs
	p.stats.QueuePops = search.QueuePops
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].dist > ls[j].dist })

	// dist returns iDist(client, candidate), computing and caching it with
	// a standalone VIP-tree distance query (the baseline recomputes from
	// scratch per pair; the cache only avoids re-measuring the very same
	// pair, which the original algorithm stores in CA too).
	cache := make(map[int64]float64)
	dist := func(ci int, n indoor.PartitionID) float64 {
		key := int64(ci)<<32 | int64(n)
		if d, ok := cache[key]; ok {
			return d
		}
		c := q.Clients[ci]
		d := t.DistPointToPartition(c.Loc, c.Part, n)
		cache[key] = d
		p.stats.DistanceCalcs++
		p.stats.Retrievals++
		return d
	}

	// Step 2: initial candidate answer set from the worst-off client.
	ca := make([]indoor.PartitionID, 0, len(q.Candidates))
	for _, n := range q.Candidates {
		if p.cancelled() {
			return Result{}, p.err
		}
		if dist(ls[0].client, n) < ls[0].dist {
			ca = append(ca, n)
		}
	}
	p.stats.ConsideredClients = 1
	caPrev := ca

	// Step 3: refinement, one client at a time in descending NN distance.
	i := 1
	for i < m && len(ca) > 1 {
		if p.cancelled() {
			return Result{}, p.err
		}
		caPrev = ca
		li := ls[i]
		// Pruning 3a: keep candidates closer to client i than its nearest
		// existing facility.
		var next []indoor.PartitionID
		for _, n := range ca {
			if dist(li.client, n) < li.dist {
				next = append(next, n)
			}
		}
		ca = next
		// Pruning 3b: drop candidates farther than li.dist from any
		// previously considered client.
		for j := 0; j < i && len(ca) > 0; j++ {
			var kept []indoor.PartitionID
			for _, n := range ca {
				if dist(ls[j].client, n) <= li.dist {
					kept = append(kept, n)
				}
			}
			ca = kept
		}
		i++
		p.stats.ConsideredClients++
		if p.rec != nil {
			// One span per refinement round: the baseline's analog of a
			// pruning pass, at the round's NN-distance horizon.
			p.emit(obs.StagePrune, li.dist)
		}
	}

	// Step 5: Find_Ans.
	if p.rec != nil {
		p.emit(obs.StageAnswerCheck, ls[0].dist)
	}
	if len(ca) == 0 {
		ca = caPrev
	}
	if len(ca) == 0 {
		// No candidate improves even the worst-off client.
		p.stats.RetainedBytes = baselineRetained(len(cache), m)
		return Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN(), Stats: p.stats}, nil
	}
	considered := i
	best, bestObj := indoor.NoPartition, math.Inf(1)
	for _, n := range ca {
		if p.cancelled() {
			return Result{}, p.err
		}
		obj := 0.0
		for j := 0; j < considered; j++ {
			d := math.Min(ls[j].dist, dist(ls[j].client, n))
			if d > obj {
				obj = d
			}
		}
		// Equal objectives resolve to the lowest candidate ID, the
		// tie-break every answer path shares.
		if obj < bestObj || (obj == bestObj && n < best) {
			best, bestObj = n, obj
		}
	}
	// Complete the objective over unconsidered clients. Their contribution
	// min(dNN, d) is bounded by their nearest-existing distance, and the
	// list is sorted descending, so the scan stops at the first client
	// whose status-quo distance cannot raise the maximum.
	for j := considered; j < m; j++ {
		if ls[j].dist <= bestObj {
			break
		}
		if d := math.Min(ls[j].dist, dist(ls[j].client, best)); d > bestObj {
			bestObj = d
		}
	}
	if bestObj >= ls[0].dist {
		p.stats.RetainedBytes = baselineRetained(len(cache), m)
		return Result{Found: false, Answer: indoor.NoPartition, Objective: math.NaN(), Stats: p.stats}, nil
	}
	p.stats.RetainedBytes = baselineRetained(len(cache), m)
	return Result{Found: true, Answer: best, Objective: bestObj, Stats: p.stats}, nil
}

// baselineRetained estimates the baseline's simultaneously-held state: the
// sorted client list and the per-pair distance cache. Each NN search and
// distance computation builds throwaway VIP-tree state that is released
// before the next client, matching the paper's observation that the
// baseline needs far less memory.
func baselineRetained(cacheEntries, clients int) int {
	const mapEntry = 48
	return cacheEntries*mapEntry + clients*24
}
