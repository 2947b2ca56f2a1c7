package d2d_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// TestOnlyRoutesPublishTrees guards the memory of the route-tree table:
// index construction, queries and the point oracles leave it empty, and
// one PointRoute publishes exactly the trees of its source partition's
// doors.
func TestOnlyRoutesPublishTrees(t *testing.T) {
	v, err := venues.ByName("MC")
	if err != nil {
		t.Fatal(err)
	}
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := tree.Graph()
	rng := rand.New(rand.NewSource(7))
	gen := workload.NewGenerator(v)
	for i := 0; i < 4; i++ {
		q, err := gen.Query(10, 20, 200, workload.Uniform, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		for obj := core.ObjMinMax; obj <= core.ObjMulti; obj++ {
			if _, err := core.Exec(context.Background(), tree, q, core.Options{Objective: obj, K: 3}); err != nil {
				t.Fatalf("%s: %v", obj, err)
			}
		}
		c := q.Clients[0]
		for _, f := range q.Candidates {
			g.PointToPartition(c.Loc, c.Part, f)
			loc := v.RandomPointIn(f, rng.Float64(), rng.Float64())
			g.PointToPoint(c.Loc, c.Part, loc, f)
		}
	}
	if got := d2d.PublishedTrees(g); len(got) != 0 {
		t.Fatalf("build, queries and point oracles published route trees from doors %v", got)
	}

	// The route leaves from a partition with several doors, so it reads
	// more than one tree.
	var src indoor.PartitionID = indoor.NoPartition
	for pi := range v.Partitions {
		if len(v.Partitions[pi].Doors) > 1 && v.Partitions[pi].ID != 0 {
			src = v.Partitions[pi].ID
			break
		}
	}
	if src == indoor.NoPartition {
		t.Fatal("MC has no partition with several doors")
	}
	g.PointRoute(v.RandomPointIn(src, 0.5, 0.5), src, v.RandomPointIn(0, 0.5, 0.5), 0)
	want := slices.Clone(v.Partition(src).Doors)
	slices.Sort(want)
	if got := d2d.PublishedTrees(g); !slices.Equal(got, want) {
		t.Fatalf("one PointRoute from partition %d published trees from doors %v, want its doors %v", src, got, want)
	}
}
