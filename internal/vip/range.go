package vip

import (
	"sort"

	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pq"
)

// RangeResult is one facility returned by a range query. A plain value;
// copy freely.
type RangeResult struct {
	Facility indoor.PartitionID
	Dist     float64
}

// RangeFacilities returns every facility within indoor distance r of point
// p (inclusive), in ascending distance order. It is the classic range query
// of the VIP-tree paper: a best-first traversal pruned by each node's
// minimum distance bound, so subtrees beyond the radius are never opened.
// Safe for concurrent use.
func (t *Tree) RangeFacilities(p geom.Point, pp indoor.PartitionID, fs *FacilitySet, r float64) []RangeResult {
	if fs.Len() == 0 || r < 0 {
		return nil
	}
	e := t.NewExplorer(pp)
	offsets := e.PointOffsets(p)
	var out []RangeResult
	if fs.Contains(pp) {
		out = append(out, RangeResult{Facility: pp, Dist: 0})
	}
	var q pq.Bucket[NodeID]
	q.Push(t.root, 0)
	for !q.Empty() {
		n, bound := q.Pop()
		if bound > r {
			break
		}
		nd := t.nodes[n]
		if nd.leaf {
			for _, f := range nd.parts {
				if f == pp || !fs.Contains(f) {
					continue
				}
				if d := e.PointToPartition(offsets, f); d <= r {
					out = append(out, RangeResult{Facility: f, Dist: d})
				}
			}
			continue
		}
		for _, c := range nd.children {
			if b := e.PointToNode(offsets, c); b <= r {
				q.Push(c, b)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Facility < out[j].Facility
	})
	return out
}
