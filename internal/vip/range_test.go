package vip

import (
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

func TestRangeFacilitiesMatchesBruteForce(t *testing.T) {
	for vn, mk := range testVenues {
		t.Run(vn, func(t *testing.T) {
			v := mk()
			tree := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
			g := d2d.New(v)
			rng := rand.New(rand.NewSource(505))
			n := v.NumPartitions()
			for trial := 0; trial < 60; trial++ {
				var fac []indoor.PartitionID
				for f := 0; f < n; f++ {
					if rng.Float64() < 0.4 {
						fac = append(fac, indoor.PartitionID(f))
					}
				}
				fs := NewFacilitySet(v, fac)
				pp := indoor.PartitionID(rng.Intn(n))
				p := v.RandomPointIn(pp, rng.Float64(), rng.Float64())
				r := rng.Float64() * 60

				got := tree.Nearest(p, pp, fs, -1, r, nil, nil)
				want := map[indoor.PartitionID]float64{}
				for _, f := range fac {
					if d := g.PointToPartition(p, pp, f); d <= r {
						want[f] = d
					}
				}
				if len(got) != len(want) {
					t.Fatalf("r=%v from %d: got %d facilities, want %d", r, pp, len(got), len(want))
				}
				for i, res := range got {
					wd, ok := want[res.Facility]
					if !ok {
						t.Fatalf("facility %d not within range per oracle", res.Facility)
					}
					if !almostEq(res.Dist, wd) {
						t.Fatalf("facility %d dist %v, oracle %v", res.Facility, res.Dist, wd)
					}
					if i > 0 && got[i-1].Dist > res.Dist+1e-9 {
						t.Fatalf("results not sorted: %v", got)
					}
				}
			}
		})
	}
}

func TestRangeFacilitiesEdgeCases(t *testing.T) {
	v := testvenue.Corridor3()
	tree := MustBuild(v, DefaultOptions())
	fs := NewFacilitySet(v, []indoor.PartitionID{1, 3})
	p := v.Partition(2).Rect.Center() // R1 center

	if got := tree.Nearest(p, 2, fs, -1, -1, nil, nil); got != nil {
		t.Fatalf("negative radius: %v", got)
	}
	if got := tree.Nearest(p, 2, NewFacilitySet(v, nil), -1, 100, nil, nil); got != nil {
		t.Fatalf("empty set: %v", got)
	}
	// Radius 0 from inside a facility partition returns it.
	q := v.Partition(1).Rect.Center()
	got := tree.Nearest(q, 1, fs, -1, 0, nil, nil)
	if len(got) != 1 || got[0].Facility != 1 || got[0].Dist != 0 {
		t.Fatalf("radius-0 self = %v", got)
	}
	// A huge radius returns every facility.
	if got := tree.Nearest(p, 2, fs, -1, 1e9, nil, nil); len(got) != 2 {
		t.Fatalf("huge radius = %v", got)
	}
}
