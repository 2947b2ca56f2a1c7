package difftest

import (
	"context"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// TestCPHTieBreakParity is the regression for the second bug the harness
// surfaced, on a real paper venue rather than a generated one: the seed-1
// CPH workload (the cmd/ifls default) has two candidates, partitions 60 and
// 64, whose MinMax objectives are bit-equal (320.42733763444841 m). The tie
// is pinned by pruned clients — each candidate's objective is reached
// through a pruned client's nearest-existing distance, not a remaining
// client — so the efficient solver's old answer scan, which compared
// candidates by their maximum distance to *remaining* clients, picked 64
// while baseline and brute picked 60. Every covering candidate at the
// answer horizon is an exact tie (see checkAnswer in efficient.go), so all
// three solvers must return the lowest ID.
func TestCPHTieBreakParity(t *testing.T) {
	v, err := venues.ByName("CPH")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	q, err := workload.NewGenerator(v).Query(20, 35, 500, workload.Uniform, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := d2d.New(v)
	br := core.SolveBrute(g, q)

	// The workload must still produce the exact tie this test exists for;
	// if the generator changes, re-derive the seed instead of deleting the
	// assertion.
	tied := 0
	for _, o := range br.Objectives {
		if o == br.Objective {
			tied++
		}
	}
	if tied < 2 {
		t.Fatalf("workload drifted: %d candidates at the optimum %v, want >= 2 exact ties", tied, br.Objective)
	}

	tree := vip.MustBuild(v, vip.DefaultOptions())
	for name, obj := range map[string]core.Objective{"efficient": core.ObjMinMax, "baseline": core.ObjBaseline} {
		er, err := core.Exec(context.Background(), tree, q, core.Options{Objective: obj})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := er.MinMax
		if !r.Found || r.Answer != br.Answer || r.Objective != br.Objective {
			t.Errorf("%s: answer=%d objective=%v, want answer=%d objective=%v (lowest-ID tie)",
				name, r.Answer, r.Objective, br.Answer, br.Objective)
		}
	}
}
