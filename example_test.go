package ifls_test

import (
	"context"
	"fmt"

	ifls "github.com/indoorspatial/ifls"
)

// smallVenue builds a corridor with three rooms; shared by the examples.
func smallVenue() (*ifls.Venue, []ifls.PartitionID) {
	b := ifls.NewBuilder("example")
	hall := b.AddCorridor(ifls.R(0, 0, 30, 4, 0), "hall")
	rooms := make([]ifls.PartitionID, 3)
	for i := range rooms {
		x0 := float64(i * 10)
		rooms[i] = b.AddRoom(ifls.R(x0, 4, x0+10, 14, 0), fmt.Sprintf("R%d", i), "")
		b.AddDoor(ifls.Pt(x0+5, 4, 0), rooms[i], hall)
	}
	v, err := b.Build()
	if err != nil {
		panic(err)
	}
	return v, rooms
}

// ExampleIndex_Query places a new facility so the farthest client's walk is
// as short as possible.
func ExampleIndex_Query() {
	venue, rooms := smallVenue()
	ix, _ := ifls.NewIndex(venue)

	a, err := ix.Query(context.Background(), &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[1], rooms[2]},
		Clients: []ifls.Client{
			{ID: 0, Loc: ifls.Pt(25, 9, 0), Part: rooms[2]},
		},
	}, ifls.QueryOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(venue.Partition(a.MinMax.Answer).Name, a.MinMax.Objective)
	// Output: R2 0
}

// ExampleIndex_Distance measures an exact indoor walking distance.
func ExampleIndex_Distance() {
	venue, _ := smallVenue()
	ix, _ := ifls.NewIndex(venue)
	// R0 center to R2 center: 5 m down, 20 m along the corridor doors, 5 m up.
	d, _ := ix.Distance(ifls.Pt(5, 9, 0), ifls.Pt(25, 9, 0))
	fmt.Printf("%.0f m\n", d)
	// Output: 30 m
}

// ExampleIndex_NearestFacility finds the closest of several facilities.
func ExampleIndex_NearestFacility() {
	venue, rooms := smallVenue()
	ix, _ := ifls.NewIndex(venue)
	f, d, _ := ix.NearestFacility(ifls.Pt(5, 9, 0), []ifls.PartitionID{rooms[1], rooms[2]})
	fmt.Printf("%s at %.0f m\n", venue.Partition(f).Name, d)
	// Output: R1 at 15 m
}

// ExampleIndex_Query_topK ranks candidate locations by their objective.
func ExampleIndex_Query_topK() {
	venue, rooms := smallVenue()
	ix, _ := ifls.NewIndex(venue)
	a, err := ix.Query(context.Background(), &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[1], rooms[2]},
		Clients: []ifls.Client{
			{ID: 0, Loc: ifls.Pt(25, 9, 0), Part: rooms[2]},
		},
	}, ifls.QueryOptions{Objective: ifls.TopK, K: 2})
	if err != nil {
		panic(err)
	}
	for _, rc := range a.TopK {
		fmt.Printf("%s %.0f\n", venue.Partition(rc.Candidate).Name, rc.Objective)
	}
	// Output:
	// R2 0
	// R1 15
}
