package core

import (
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestRetainedMemoryShape pins the paper's memory-cost relationship
// (Figures 5/6/8): the efficient approach retains per-client lists and
// per-partition distance vectors simultaneously, the baseline only its
// candidate distance cache, so the efficient approach retains more — and
// its retention grows with the client count.
func TestRetainedMemoryShape(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 10, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rng := rand.New(rand.NewSource(2024))

	prevEff := 0
	for _, m := range []int{50, 200, 800} {
		q := randomQuery(v, rng, 3, 8, m)
		eff := execOf(tree, q, Options{}).MinMax
		base := execOf(tree, q, Options{Objective: ObjBaseline}).MinMax
		if eff.Stats.RetainedBytes <= 0 || base.Stats.RetainedBytes <= 0 {
			t.Fatalf("retained bytes not recorded: eff=%d base=%d",
				eff.Stats.RetainedBytes, base.Stats.RetainedBytes)
		}
		if eff.Stats.RetainedBytes <= base.Stats.RetainedBytes {
			t.Fatalf("|C|=%d: efficient retained %d <= baseline %d; paper's shape inverted",
				m, eff.Stats.RetainedBytes, base.Stats.RetainedBytes)
		}
		if eff.Stats.RetainedBytes < prevEff {
			// Retention should not shrink as the client count grows
			// substantially (allow noise-free monotonicity on this grid).
			t.Fatalf("efficient retention fell from %d to %d as |C| grew", prevEff, eff.Stats.RetainedBytes)
		}
		prevEff = eff.Stats.RetainedBytes
	}
}

func TestExtensionsRecordRetained(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 1, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rng := rand.New(rand.NewSource(7))
	q := randomQuery(v, rng, 2, 5, 40)
	if r := execOf(tree, q, Options{Objective: ObjMinDist}).Ext; r.Stats.RetainedBytes <= 0 {
		t.Errorf("MinDist retained = %d", r.Stats.RetainedBytes)
	}
	if r := execOf(tree, q, Options{Objective: ObjMaxSum}).Ext; r.Stats.RetainedBytes <= 0 {
		t.Errorf("MaxSum retained = %d", r.Stats.RetainedBytes)
	}
}
