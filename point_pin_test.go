package ifls_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

// pointQueriesGolden holds, per venue, the FNV-64a hash of every answer
// TestPointQueriesPinned asks for. An answer that moves by one facility,
// one distance bit or nil-versus-empty changes the hash.
var pointQueriesGolden = map[string]uint64{
	"MC":  0x54ff32fa0e2b9dfc,
	"CPH": 0x6c226d545181940c,
	"CH":  0xe4d172ffbfcfa7f4,
}

// pinHash writes query answers into an FNV-64a hash in a fixed layout.
type pinHash struct{ h hash.Hash64 }

func (p pinHash) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	p.h.Write(b[:])
}

func (p pinHash) dist(d float64) { p.u64(math.Float64bits(d)) }

// neighbors records a kNN or range answer: a tag for nil versus empty,
// then each facility and the bits of its distance, in answer order.
func (p pinHash) neighbors(ns []ifls.Neighbor) {
	switch {
	case ns == nil:
		p.u64(0)
	case len(ns) == 0:
		p.u64(1)
	default:
		p.u64(2)
	}
	p.u64(uint64(len(ns)))
	for _, n := range ns {
		p.u64(uint64(n.Facility))
		p.dist(n.Dist)
	}
}

// TestPointQueriesPinned pins the public point queries on MC, CPH and CH:
// for 60 seeded points each, NearestFacility, KNearestFacilities for k in
// {0, 1, 3, |F|+1}, FacilitiesWithin for r in {-1, 0, 20, 60, 1e9},
// Distance to the next point and DistanceToPartition to a facility. Every
// fourth point lies in a facility, so the zero-distance own-partition
// answer is covered too.
func TestPointQueriesPinned(t *testing.T) {
	for _, name := range []string{"MC", "CPH", "CH"} {
		v, err := ifls.SampleVenue(name)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := ifls.NewIndex(v)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(25))
		fe, fn, err := ifls.NewWorkloadGenerator(v).Facilities(10, 20, rng)
		if err != nil {
			t.Fatal(err)
		}
		fs := append(append([]ifls.PartitionID(nil), fe...), fn...)
		pts := make([]ifls.Point, 60)
		for i := range pts {
			p := ifls.PartitionID(rng.Intn(v.NumPartitions()))
			if i%4 == 0 {
				p = fs[rng.Intn(len(fs))]
			}
			pts[i] = v.RandomPointIn(p, rng.Float64(), rng.Float64())
		}
		ph := pinHash{fnv.New64a()}
		for i, p := range pts {
			f, d, ok := ix.NearestFacility(p, fs)
			if ok {
				ph.u64(1)
			} else {
				ph.u64(0)
			}
			ph.u64(uint64(f))
			ph.dist(d)
			for _, k := range []int{0, 1, 3, len(fs) + 1} {
				ph.neighbors(ix.KNearestFacilities(p, fs, k))
			}
			for _, r := range []float64{-1, 0, 20, 60, 1e9} {
				ph.neighbors(ix.FacilitiesWithin(p, fs, r))
			}
			d, err := ix.Distance(p, pts[(i+1)%len(pts)])
			if err != nil {
				t.Fatal(err)
			}
			ph.dist(d)
			d, err = ix.DistanceToPartition(p, fs[i%len(fs)])
			if err != nil {
				t.Fatal(err)
			}
			ph.dist(d)
		}
		if got := ph.h.Sum64(); got != pointQueriesGolden[name] {
			t.Errorf("%s: point-query hash %#x, want %#x", name, got, pointQueriesGolden[name])
		}
	}
}
