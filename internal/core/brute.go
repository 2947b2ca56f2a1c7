package core

import (
	"math"

	"github.com/indoorspatial/ifls/internal/d2d"
)

// BruteResult extends Result with the exact per-candidate objective values
// the oracle computed, for test assertions. A plain value owned by the
// caller.
type BruteResult struct {
	Result
	// StatusQuo is the objective with no new facility: the maximum over
	// clients of the distance to the nearest existing facility
	// (+Inf when Fe is empty and clients exist).
	StatusQuo float64
	// Objectives[i] is the exact MinMax objective of Candidates[i].
	Objectives []float64
}

// SolveBrute computes the IFLS answer exactly on the door-to-door graph: one
// Dijkstra per client-partition door yields every client-to-facility
// distance, from which the objective of each candidate is evaluated
// directly. It is independent of the VIP-tree code paths, which makes it the
// correctness oracle for the other solvers, and it doubles as the
// no-pruning reference point in ablation benchmarks. State is call-local
// and the graph is immutable; concurrent calls are safe.
func SolveBrute(g *d2d.Graph, q *Query) BruteResult {
	m := len(q.Clients)
	res := BruteResult{Result: noResult()}
	res.Objectives = make([]float64, len(q.Candidates))
	if m == 0 {
		// With no clients every candidate trivially achieves objective 0;
		// no candidate strictly improves the (empty) status quo.
		res.StatusQuo = 0
		return res
	}
	distTo, nnExist := clientFacilityDistances(g, q)
	statusQuo := 0.0
	for _, d := range nnExist {
		if d > statusQuo {
			statusQuo = d
		}
	}
	res.StatusQuo = statusQuo

	bestObj, bestIdx := math.Inf(1), -1
	for j := range q.Candidates {
		k := len(q.Existing) + j
		obj := 0.0
		for ci := range q.Clients {
			d := math.Min(nnExist[ci], distTo[ci][k])
			if d > obj {
				obj = d
			}
		}
		res.Objectives[j] = obj
		// Equal objectives resolve to the lowest candidate ID, the
		// tie-break every answer path shares (see internal/difftest).
		if obj < bestObj || (obj == bestObj && bestIdx >= 0 && q.Candidates[j] < q.Candidates[bestIdx]) {
			bestObj, bestIdx = obj, j
		}
	}
	if bestIdx >= 0 && bestObj < statusQuo {
		res.Found = true
		res.Answer = q.Candidates[bestIdx]
		res.Objective = bestObj
	}
	res.Stats.DistanceCalcs = m * (len(q.Existing) + len(q.Candidates))
	return res
}
