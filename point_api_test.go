package ifls_test

import (
	"errors"
	"math"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

// TestPointAPIRejectsUnknownPartitions: every point query that takes
// partition IDs must reject IDs outside the venue with its documented
// empty answer or ErrInvalidQuery, never a panic, and must still answer
// when the IDs are valid.
func TestPointAPIRejectsUnknownPartitions(t *testing.T) {
	v, ix, q := robustnessFixture(t)
	np := ifls.PartitionID(len(v.Partitions))
	p := q.Clients[0].Loc
	good := q.Existing[0]
	for _, bad := range []ifls.PartitionID{np, np + 9, -1, ifls.NoPartition - 1} {
		noPanic(t, "NearestFacility", func() {
			if f, _, ok := ix.NearestFacility(p, []ifls.PartitionID{good, bad}); ok {
				t.Errorf("NearestFacility with %d: got %d, want ok == false", bad, f)
			}
		})
		noPanic(t, "KNearestFacilities", func() {
			if got := ix.KNearestFacilities(p, []ifls.PartitionID{bad, good}, 2); got != nil {
				t.Errorf("KNearestFacilities with %d: got %v, want nil", bad, got)
			}
		})
		noPanic(t, "FacilitiesWithin", func() {
			if got := ix.FacilitiesWithin(p, []ifls.PartitionID{good, bad}, 1e9); got != nil {
				t.Errorf("FacilitiesWithin with %d: got %v, want nil", bad, got)
			}
		})
		noPanic(t, "DistanceToPartition", func() {
			if _, err := ix.DistanceToPartition(p, bad); !errors.Is(err, ifls.ErrInvalidQuery) {
				t.Errorf("DistanceToPartition(%d): err = %v, want ErrInvalidQuery", bad, err)
			}
		})
	}
	if _, _, ok := ix.NearestFacility(p, []ifls.PartitionID{good}); !ok {
		t.Error("NearestFacility rejected a valid facility")
	}
	if got := ix.KNearestFacilities(p, []ifls.PartitionID{good}, 2); len(got) != 1 {
		t.Errorf("KNearestFacilities on a valid facility = %v", got)
	}
	if got := ix.FacilitiesWithin(p, []ifls.PartitionID{good}, 1e9); len(got) != 1 {
		t.Errorf("FacilitiesWithin on a valid facility = %v", got)
	}
	if _, err := ix.DistanceToPartition(p, good); err != nil {
		t.Errorf("DistanceToPartition on a valid partition: %v", err)
	}
}

// TestFacilitiesWithinRejectsNaNRadius: a NaN radius is no radius, so the
// range query answers it like an unknown facility ID, with nil. It used to
// compare false against every distance but the source partition's own 0
// and return that facility alone.
func TestFacilitiesWithinRejectsNaNRadius(t *testing.T) {
	_, ix, q := robustnessFixture(t)
	p := q.Clients[0].Loc
	own := q.Clients[0].Part
	facilities := append([]ifls.PartitionID{own}, q.Candidates...)
	if got := ix.FacilitiesWithin(p, facilities, math.NaN()); got != nil {
		t.Errorf("FacilitiesWithin with a NaN radius = %v, want nil", got)
	}
	all := ix.FacilitiesWithin(p, facilities, math.Inf(1))
	if len(all) < 2 || all[0].Facility != own || all[0].Dist != 0 {
		t.Fatalf("FacilitiesWithin with an infinite radius = %v, want the source partition first and more", all)
	}
}

// noPanic runs fn and reports a panic as a test failure naming the call.
func noPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", name, r)
		}
	}()
	fn()
}
