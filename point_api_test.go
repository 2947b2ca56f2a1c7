package ifls_test

import (
	"errors"
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
