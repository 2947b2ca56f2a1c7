// Fuzz coverage for the no-panic guarantee: arbitrary (including hostile)
// query values thrown at the public ifls API must come back as errors or
// degraded results, never as a panic escaping an exported function.
//
// The test lives in package indoor_test so it can import the root ifls
// package (Go permits an external test package to import packages that
// depend on the package under test).
package indoor_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

var fuzzIndex = struct {
	once sync.Once
	v    *ifls.Venue
	ix   *ifls.Index
	err  error
}{}

func fuzzFixture(tb testing.TB) (*ifls.Venue, *ifls.Index) {
	tb.Helper()
	fuzzIndex.once.Do(func() {
		fuzzIndex.v, fuzzIndex.err = ifls.SampleVenue("CPH")
		if fuzzIndex.err != nil {
			return
		}
		fuzzIndex.ix, fuzzIndex.err = ifls.NewIndex(fuzzIndex.v)
	})
	if fuzzIndex.err != nil {
		tb.Fatal(fuzzIndex.err)
	}
	return fuzzIndex.v, fuzzIndex.ix
}

// FuzzQueryValidate builds a Query from raw fuzz inputs — partition IDs
// that may be far out of range or negative, coordinates that may be NaN,
// infinite, or on the wrong level — and drives it through Validate and
// every exported solver entry point. The only acceptable outcomes are a
// typed error or a degraded (not-found) result; any panic fails the fuzz
// run immediately, because testing's fuzz driver reports escaping panics
// as crashes.
func FuzzQueryValidate(f *testing.F) {
	v, ix := fuzzFixture(f)

	// Seed corpus: a valid query, then one seed per validation rule.
	np := len(v.Partitions)
	f.Add(int64(0), int64(1), int64(2), 1.0, 1.0, int64(0), 2)         // plausible
	f.Add(int64(-1), int64(1), int64(2), 1.0, 1.0, int64(0), 2)        // negative existing
	f.Add(int64(np+7), int64(1), int64(2), 1.0, 1.0, int64(0), 2)      // out-of-range existing
	f.Add(int64(0), int64(np*3), int64(2), 1.0, 1.0, int64(0), 2)      // out-of-range candidate
	f.Add(int64(0), int64(1), int64(-5), 1.0, 1.0, int64(0), 2)        // negative client partition
	f.Add(int64(0), int64(1), int64(2), math.NaN(), 1.0, int64(0), 2)  // NaN coordinate
	f.Add(int64(0), int64(1), int64(2), math.Inf(1), 1.0, int64(0), 2) // infinite coordinate
	f.Add(int64(0), int64(1), int64(2), 1.0, 1.0, int64(99), 2)        // cross-level client
	f.Add(int64(0), int64(1), int64(2), -1e9, -1e9, int64(0), 2)       // far outside partition
	f.Add(int64(0), int64(1), int64(2), 1.0, 1.0, int64(0), -3)        // negative k
	f.Add(int64(0), int64(1), int64(2), 1.0, 1.0, int64(0), 1_000_000) // huge k

	f.Fuzz(func(t *testing.T, pe, pc, pp int64, x, y float64, level int64, k int) {
		q := &ifls.Query{
			Existing:   []ifls.PartitionID{ifls.PartitionID(pe)},
			Candidates: []ifls.PartitionID{ifls.PartitionID(pc)},
			Clients: []ifls.Client{{
				ID:   1,
				Loc:  ifls.Pt(x, y, int(level)),
				Part: ifls.PartitionID(pp),
			}},
		}
		verr := q.Validate(v) // must not panic; error is fine

		ctx := context.Background()
		sess := ix.NewSession()
		for _, obj := range []ifls.Objective{ifls.MinMax, ifls.Baseline, ifls.MinDist, ifls.MaxSum, ifls.TopK, ifls.Multi} {
			o := ifls.QueryOptions{Objective: obj, K: k}
			for path, query := range map[string]func() error{
				"Index.Query":   func() error { _, err := ix.Query(ctx, q, o); return err },
				"Session.Query": func() error { _, err := sess.Query(ctx, q, o); return err },
			} {
				err := query()
				if (err != nil) != (verr != nil) {
					t.Fatalf("%s(%v) error %v inconsistent with Validate %v", path, obj, err, verr)
				}
				if err != nil && !errors.Is(err, ifls.ErrInvalidQuery) {
					t.Fatalf("%s(%v) error %v does not wrap ErrInvalidQuery", path, obj, err)
				}
			}
		}
	})
}

// FuzzPointQueries drives the point queries — NearestFacility,
// KNearestFacilities, FacilitiesWithin, Distance and DistanceToPartition —
// with coordinates, radii and k that may be NaN, infinite, negative or
// huge, and facility IDs that may name no partition. None may panic. A
// neighbour list must be in ascending distance order (ties by facility ID
// for FacilitiesWithin), hold at most k entries from KNearestFacilities,
// and lie within the radius from FacilitiesWithin, which answers a NaN
// radius with nil.
func FuzzPointQueries(f *testing.F) {
	v, ix := fuzzFixture(f)
	np := int64(len(v.Partitions))
	f.Add(30.0, 20.0, int64(0), 50.0, 3, int64(1), int64(5))             // plausible
	f.Add(math.NaN(), 20.0, int64(0), 50.0, 3, int64(1), int64(5))       // NaN coordinate
	f.Add(30.0, math.Inf(1), int64(0), 50.0, 3, int64(1), int64(5))      // infinite coordinate
	f.Add(30.0, 20.0, int64(0), math.NaN(), 3, int64(1), int64(5))       // NaN radius
	f.Add(30.0, 20.0, int64(0), math.Inf(1), -1, int64(1), int64(5))     // infinite radius, negative k
	f.Add(30.0, 20.0, int64(0), math.Inf(-1), 1<<30, int64(1), int64(5)) // negative radius, huge k
	f.Add(30.0, 20.0, int64(7), 50.0, 3, int64(-1), np)                  // wrong level, unknown IDs
	f.Fuzz(func(t *testing.T, x, y float64, level int64, r float64, k int, f1, f2 int64) {
		p := ifls.Pt(x, y, int(level))
		q := ifls.Pt(y, x, 0)
		facilities := []ifls.PartitionID{ifls.PartitionID(f1), ifls.PartitionID(f2), ifls.PartitionID(f1 % np)}
		ix.NearestFacility(p, facilities)
		_, _ = ix.Distance(p, q)
		_, _ = ix.DistanceToPartition(p, ifls.PartitionID(f2))

		sorted := func(name string, ns []ifls.Neighbor, byID bool) {
			for i := 1; i < len(ns); i++ {
				a, b := ns[i-1], ns[i]
				if a.Dist > b.Dist || (byID && a.Dist == b.Dist && a.Facility > b.Facility) {
					t.Fatalf("%s: neighbours out of order at %d: %v", name, i, ns)
				}
			}
		}
		kn := ix.KNearestFacilities(p, facilities, k)
		sorted("KNearestFacilities", kn, false)
		if len(kn) > max(k, 0) {
			t.Fatalf("KNearestFacilities(k=%d) returned %d neighbours", k, len(kn))
		}
		in := ix.FacilitiesWithin(p, facilities, r)
		sorted("FacilitiesWithin", in, true)
		if math.IsNaN(r) && in != nil {
			t.Fatalf("FacilitiesWithin with a NaN radius = %v, want nil", in)
		}
		for _, n := range in {
			if !(n.Dist <= r) {
				t.Fatalf("FacilitiesWithin(r=%v) returned %v", r, n)
			}
		}
	})
}
