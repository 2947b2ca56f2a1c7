package continuous

import (
	"math"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// seededSig returns a signature for partition p of v over facs (existing
// first) with p's real door locations and stair length, and random door
// distances. Ties are common (values are quantized),
// roughly one cell in six is +Inf, some doors reach nothing (a whole +Inf
// row), and a facility in p itself gets the zero column signature writes
// for it — or, half the time, random values, which resolve must override.
func seededSig(rng *rand.Rand, v *indoor.Venue, facs []indoor.PartitionID, p indoor.PartitionID, ne int) *partSig {
	doors := v.Partition(p).Doors
	ndoors := len(doors)
	locs := make([]geom.Point, ndoors)
	for j, d := range doors {
		locs[j] = v.Door(d).Loc
	}
	zeroOwn := rng.Intn(2) == 0
	dist := make([]float64, 0, ndoors*len(facs))
	for j := 0; j < ndoors; j++ {
		dead := rng.Intn(8) == 0
		for _, f := range facs {
			switch {
			case f == p && zeroOwn:
				dist = append(dist, 0)
			case dead || rng.Intn(6) == 0:
				dist = append(dist, math.Inf(1))
			default:
				dist = append(dist, float64(rng.Intn(80))/2)
			}
		}
	}
	return newPartSig(doors, locs, v.Partition(p).StairLength, dist, ne)
}

// naiveRow is the specification resolve must meet: every facility's
// distance is min over all doors of (offset + door distance), a facility
// in the client's own partition is at 0, and nn is the least existing
// distance.
func naiveRow(off []float64, sig *partSig, part indoor.PartitionID, existing, candidates []indoor.PartitionID) (nn float64, cand []float64) {
	nf := len(existing) + len(candidates)
	facDist := func(col int, f indoor.PartitionID) float64 {
		if f == part {
			return 0
		}
		best := math.Inf(1)
		for j, oj := range off {
			if d := oj + sig.dist[j*nf+col]; d < best {
				best = d
			}
		}
		return best
	}
	nn = math.Inf(1)
	for i, f := range existing {
		if d := facDist(i, f); d < nn {
			nn = d
		}
	}
	cand = make([]float64, len(candidates))
	for k, f := range candidates {
		cand[k] = facDist(len(existing)+k, f)
	}
	return nn, cand
}

// TestResolveMatchesNaive pins resolve to a naive loop over every door and
// facility: over seeded signatures and random client points, nn and every
// min(nn, cand[k]) — all that combine reads of a row — must agree bit for
// bit.
func TestResolveMatchesNaive(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rng := rand.New(rand.NewSource(16))
	n := v.NumPartitions()
	pick := func(k int) []indoor.PartitionID {
		out := make([]indoor.PartitionID, k)
		for i := range out {
			out[i] = indoor.PartitionID(rng.Intn(n))
		}
		return out
	}
	checked := 0
	for trial := 0; trial < 300; trial++ {
		part := indoor.PartitionID(rng.Intn(n))
		existing := pick(rng.Intn(4)) // sometimes none: nn stays +Inf
		candidates := pick(1 + rng.Intn(8))
		// Put the client's own partition among the facilities often.
		if rng.Intn(3) == 0 && len(existing) > 0 {
			existing[rng.Intn(len(existing))] = part
		}
		if rng.Intn(3) == 0 {
			candidates[rng.Intn(len(candidates))] = part
		}
		e := &Engine{existing: existing, candidates: candidates}
		facs := e.facs()
		sig := seededSig(rng, v, facs, part, len(existing))
		e.era = &era{tree: tree, facs: facs, ne: len(existing), sigs: make([]*partSig, n)}
		e.era.sigs[part] = sig
		var r row // reused across points, as the engine reuses rows
		for pt := 0; pt < 5; pt++ {
			loc := v.RandomPointIn(part, rng.Float64(), rng.Float64())
			e.resolve(&r, core.Client{Loc: loc, Part: part})
			off := tree.NewExplorer(part).PointOffsetsAppend(nil, loc)
			wantNN, wantCand := naiveRow(off, sig, part, existing, candidates)
			if math.Float64bits(r.nn) != math.Float64bits(wantNN) {
				t.Fatalf("trial %d: nn = %v, naive %v", trial, r.nn, wantNN)
			}
			for k := range candidates {
				got, want := math.Min(r.nn, r.cand[k]), math.Min(wantNN, wantCand[k])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: min(nn, cand[%d]) = %v, naive %v", trial, k, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate distances checked")
	}
}
