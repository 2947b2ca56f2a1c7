package continuous

import (
	"math"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// checkSignatureRows requires every cell of er.signature(p), for each
// partition in parts, to equal bit for bit the distance PointToPartition
// gives for one-hot offsets: zero at the row's door and +Inf at every
// other door of p, so only that door's row can reach the facility.
func checkSignatureRows(t *testing.T, er *era, parts []indoor.PartitionID) {
	t.Helper()
	nf := len(er.facs)
	for _, p := range parts {
		sig := er.signature(p)
		e := er.tree.NewExplorer(p)
		off := make([]float64, len(e.SrcDoors()))
		if len(sig.dist) != len(off)*nf {
			t.Fatalf("%s partition %d: %d signature cells, want %d", er.venue.Name, p, len(sig.dist), len(off)*nf)
		}
		for j := range off {
			for i := range off {
				off[i] = math.Inf(1)
			}
			off[j] = 0
			for k, f := range er.facs {
				got, want := sig.dist[j*nf+k], e.PointToPartition(off, f)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s partition %d door row %d facility %d: signature %v, one-hot %v",
						er.venue.Name, p, j, f, got, want)
				}
			}
		}
	}
}

// TestSignatureRowsMatchOneHot pins era.signature to the one-hot
// PointToPartition definition of a signature row: on every MC partition
// in the base era and in each of six eras that close one door (the doors
// the MC door-rotation scenario closes in turn), and on CH's two largest
// hubs.
func TestSignatureRowsMatchOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	mc, err := venues.ByName("MC")
	if err != nil {
		t.Fatal(err)
	}
	tree := vip.MustBuild(mc, vip.DefaultOptions())
	fe, fn, err := workload.NewGenerator(mc).Facilities(20, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]indoor.PartitionID, mc.NumPartitions())
	for i := range all {
		all[i] = indoor.PartitionID(i)
	}
	checkSignatureRows(t, baseEngine(t, tree, fe, fn).era, all)
	for _, d := range []indoor.DoorID{147, 149, 235, 237, 297, 298} {
		tt := temporal.NewTimetable(mc)
		if err := tt.SetDoor(d, temporal.Daily(h(9), h(17))); err != nil {
			t.Fatal(err)
		}
		e := &Engine{existing: fe, candidates: fn, baseVenue: mc, baseTree: tree, tt: tt}
		er, err := e.buildEra(h(8))
		if err != nil {
			t.Fatal(err)
		}
		if er.tree == tree {
			t.Fatalf("door %d: closing it built no new era", d)
		}
		checkSignatureRows(t, er, all)
	}

	ch, err := venues.ByName("CH")
	if err != nil {
		t.Fatal(err)
	}
	chTree := vip.MustBuild(ch, vip.DefaultOptions())
	fe, fn, err = workload.NewGenerator(ch).Facilities(20, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkSignatureRows(t, baseEngine(t, chTree, fe, fn).era, hubs(ch, 2))
}
