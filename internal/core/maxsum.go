package core

import (
	"math"

	"github.com/indoorspatial/ifls/internal/indoor"
)

// The MaxSum variant of the IFLS query (Section 7, ObjMaxSum) returns the
// candidate that captures the most clients, where a candidate captures a
// client when it would become the client's nearest facility (strictly
// closer than every existing facility). The shared traversal decides each
// (client, candidate) pair exactly:
//
//   - a candidate retrieved within Gd for an unpruned client captures it
//     (the client's nearest existing facility is beyond Gd);
//   - a pruned client's nearest existing distance is final, so retrieved
//     pairs compare directly and unretrieved candidates (farther than Gd)
//     cannot capture it;
//
// and stops when some fully-decided candidate's captured count reaches every
// other candidate's upper bound (decided captures plus undecided pairs).

// maxSumObj counts captured clients per candidate over the shared pairTab
// bookkeeping.
type maxSumObj struct {
	tab      pairTab
	ids      []indoor.PartitionID
	captured []int
	decided  []int
}

// newMaxSumObj resets the MaxSum candidate bookkeeping held by the run's
// Scratch; see newMinDistObj.
func newMaxSumObj(s *extState) *maxSumObj {
	nc := len(s.cands)
	o := &s.sc.ms
	o.tab.reset(len(s.q.Clients), nc, &s.sc.pending)
	o.ids = s.cands
	o.captured = resize(o.captured, nc)
	o.decided = resize(o.decided, nc)
	return o
}

func (o *maxSumObj) decide(k int, captures bool) {
	o.decided[k]++
	if captures {
		o.captured[k]++
	}
}

func (o *maxSumObj) retainedBytes() int { return o.tab.retainedBytes() }

func (o *maxSumObj) retrieved(ci, k int, d, gd float64) {
	o.tab.add(ci, k, d)
}

func (o *maxSumObj) clientPruned(ci int, dNN float64) {
	t := &o.tab
	t.clientDone[ci] = true
	t.stampRow(ci)
	for k := 0; k < t.nc; k++ {
		if t.rowHas(k) {
			if t.rowDone[k] {
				continue
			}
			o.decide(k, t.rowDist[k] < dNN)
			continue
		}
		o.decide(k, false)
	}
}

func (o *maxSumObj) boundAdvanced(gd float64) {
	// Unpruned client: nearest existing facility beyond gd >= d, so the
	// candidate strictly captures.
	o.tab.drain(gd, func(k int, d float64) { o.decide(k, true) })
}

func (o *maxSumObj) answer(gd float64) (int, bool) {
	m := o.tab.m
	best, bestCount := -1, -1
	for k := range o.captured {
		if o.decided[k] != m {
			continue
		}
		// Equal capture counts resolve to the lowest candidate ID — the
		// tie-break every answer path shares.
		if o.captured[k] > bestCount || (o.captured[k] == bestCount && best >= 0 && o.ids[k] < o.ids[best]) {
			best, bestCount = k, o.captured[k]
		}
	}
	if best < 0 {
		return -1, false
	}
	if math.IsInf(gd, 1) {
		return best, true
	}
	for k := range o.captured {
		if k == best {
			continue
		}
		ub := o.captured[k] + (m - o.decided[k])
		// An undecided candidate that could still tie the best count is only
		// a threat when it would win the lowest-ID tie-break.
		if ub > bestCount || (ub == bestCount && o.ids[k] < o.ids[best]) {
			return -1, false
		}
	}
	return best, true
}
