package core

import (
	"math"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// BruteExtResult is the oracle output for the Section 7 variants. A plain
// value owned by the caller.
type BruteExtResult struct {
	Answer indoor.PartitionID
	// Objective of the best candidate (total distance for MinDist,
	// captured-client count for MaxSum).
	Objective float64
	// PerCandidate holds the exact objective of every candidate, aligned
	// with Query.Candidates.
	PerCandidate []float64
	// Improves reports strict improvement over the status quo.
	Improves bool
}

// clientFacilityDistances computes the dense client × facility distance
// matrix (facilities = Existing ++ Candidates) plus each client's exact
// nearest-existing distance.
func clientFacilityDistances(g *d2d.Graph, q *Query) (distTo [][]float64, nnExist []float64) {
	v := g.Venue()
	m := len(q.Clients)
	facs := make([]indoor.PartitionID, 0, len(q.Existing)+len(q.Candidates))
	facs = append(facs, q.Existing...)
	facs = append(facs, q.Candidates...)
	distTo = make([][]float64, m)
	byPart := map[indoor.PartitionID][]int{}
	for i, c := range q.Clients {
		byPart[c.Part] = append(byPart[c.Part], i)
	}
	for part, idxs := range byPart {
		doors := v.Partition(part).Doors
		doorDist := make([][]float64, len(doors))
		for di, d := range doors {
			doorDist[di] = g.FromDoor(d)
		}
		for _, ci := range idxs {
			c := q.Clients[ci]
			row := make([]float64, len(facs))
			off := make([]float64, len(doors))
			for di, d := range doors {
				off[di] = v.PointDoorDist(part, c.Loc, d)
			}
			for k, f := range facs {
				if f == part {
					row[k] = 0
					continue
				}
				best := math.Inf(1)
				for _, fd := range v.Partition(f).Doors {
					for di := range doors {
						if t := off[di] + doorDist[di][fd]; t < best {
							best = t
						}
					}
				}
				row[k] = best
			}
			distTo[ci] = row
		}
	}
	nnExist = make([]float64, m)
	for ci := range q.Clients {
		best := math.Inf(1)
		for k := range q.Existing {
			if distTo[ci][k] < best {
				best = distTo[ci][k]
			}
		}
		nnExist[ci] = best
	}
	return distTo, nnExist
}

// SolveBruteMinDist evaluates the MinDist objective of every candidate
// exactly on the door-to-door graph. Call-local state; concurrent calls
// are safe.
func SolveBruteMinDist(g *d2d.Graph, q *Query) BruteExtResult {
	res := BruteExtResult{Answer: indoor.NoPartition, Objective: math.NaN()}
	if len(q.Clients) == 0 || len(q.Candidates) == 0 {
		return res
	}
	distTo, nnExist := clientFacilityDistances(g, q)
	res.PerCandidate = make([]float64, len(q.Candidates))
	statusQuo := 0.0
	for _, d := range nnExist {
		statusQuo += d
	}
	best, bestTotal := -1, math.Inf(1)
	for j := range q.Candidates {
		k := len(q.Existing) + j
		total := 0.0
		for ci := range q.Clients {
			total += math.Min(nnExist[ci], distTo[ci][k])
		}
		res.PerCandidate[j] = total
		// Equal totals resolve to the lowest candidate ID, the tie-break
		// every answer path shares.
		if total < bestTotal || (total == bestTotal && best >= 0 && q.Candidates[j] < q.Candidates[best]) {
			best, bestTotal = j, total
		}
	}
	res.Answer = q.Candidates[best]
	res.Objective = bestTotal
	res.Improves = bestTotal < statusQuo
	return res
}

// SolveBruteMaxSum evaluates the MaxSum objective of every candidate
// exactly on the door-to-door graph. Call-local state; concurrent calls
// are safe.
func SolveBruteMaxSum(g *d2d.Graph, q *Query) BruteExtResult {
	res := BruteExtResult{Answer: indoor.NoPartition, Objective: math.NaN()}
	if len(q.Clients) == 0 || len(q.Candidates) == 0 {
		return res
	}
	distTo, nnExist := clientFacilityDistances(g, q)
	res.PerCandidate = make([]float64, len(q.Candidates))
	best, bestCount := -1, -1
	for j := range q.Candidates {
		k := len(q.Existing) + j
		count := 0
		for ci := range q.Clients {
			if distTo[ci][k] < nnExist[ci] {
				count++
			}
		}
		res.PerCandidate[j] = float64(count)
		// Equal capture counts resolve to the lowest candidate ID, the
		// tie-break every answer path shares.
		if count > bestCount || (count == bestCount && best >= 0 && q.Candidates[j] < q.Candidates[best]) {
			best, bestCount = j, count
		}
	}
	res.Answer = q.Candidates[best]
	res.Objective = float64(bestCount)
	res.Improves = bestCount > 0
	return res
}
