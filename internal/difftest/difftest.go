// Package difftest is the differential correctness harness: it generates
// adversarial random venues and workloads, runs every objective through all
// answer paths — core.Exec fresh, pooled Scratch, warm Session,
// batch.Execute, and brute force on the d2d Dijkstra oracle — and asserts that
// objective values, winner IDs, and tie-break order agree. On a mismatch the
// shrinker greedily drops clients, candidates, doors, and partitions while
// the disagreement persists and emits a minimal reproducer (a corpus file
// plus a Go snippet).
//
// Comparison policy. The four engine paths share one arithmetic (VIP-tree
// distance sums), so they must agree exactly: same Found, same answer ID,
// bit-identical objective. The oracle recomputes distances by running
// Dijkstra on the door-to-door graph, which can differ from the engine's
// sums by floating-point noise, so engine-versus-oracle comparisons use a
// relative tolerance: the objective values must be close, and a differing
// winner ID is accepted only when both winners' oracle objectives are within
// tolerance of the oracle optimum (a genuine near-tie). Exact-tie lowest-ID
// determinism is pinned separately by table tests on symmetric venues.
package difftest

import (
	"math"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// Case is one differential test input: a venue, a query against it, and the
// objective (with its K, where the objective takes one) to answer it under.
type Case struct {
	Venue *indoor.Venue
	Query *core.Query
	Obj   core.Objective
	K     int
}

// eps is the relative tolerance for engine-versus-oracle value comparisons,
// matching the 1e-6 the repo's existing parity tests use.
const eps = 1e-6

// closeVal reports whether two objective values agree up to floating-point
// noise. NaN agrees with NaN (the shared "no answer" encoding) and +Inf with
// +Inf (unreachable).
func closeVal(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= eps*scale
}

// tol returns the absolute tolerance closeVal applies at a value's scale.
func tol(v float64) float64 {
	return eps * math.Max(1, math.Abs(v))
}
