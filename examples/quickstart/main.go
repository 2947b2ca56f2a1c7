// Quickstart: model a one-floor office through the public API, then ask
// where to put a second coffee machine so that nobody has to walk far.
package main

import (
	"context"
	"fmt"
	"log"

	ifls "github.com/indoorspatial/ifls"
)

func main() {
	// A corridor with six rooms on one side:
	//
	//	+----+----+----+----+----+----+
	//	| R0 | R1 | R2 | R3 | R4 | R5 |
	//	+-d--+-d--+-d--+-d--+-d--+-d--+
	//	|           corridor          |
	//	+-----------------------------+
	b := ifls.NewBuilder("office")
	hall := b.AddCorridor(ifls.R(0, 0, 60, 4, 0), "hall")
	rooms := make([]ifls.PartitionID, 6)
	for i := range rooms {
		x0 := float64(i * 10)
		rooms[i] = b.AddRoom(ifls.R(x0, 4, x0+10, 14, 0), fmt.Sprintf("R%d", i), "")
		b.AddDoor(ifls.Pt(x0+5, 4, 0), rooms[i], hall)
	}
	venue, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	ix, err := ifls.NewIndex(venue)
	if err != nil {
		log.Fatal(err)
	}

	// One coffee machine already exists in R0; R3, R4, and R5 could host
	// a second one. Staff sit in every room.
	var clients []ifls.Client
	for i, r := range rooms {
		c, err := ix.ClientAt(int32(i), venue.Partition(r).Rect.Center())
		if err != nil {
			log.Fatal(err)
		}
		clients = append(clients, c)
	}
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[3], rooms[4], rooms[5]},
		Clients:    clients,
	}

	a, err := ix.Query(context.Background(), q, ifls.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res := a.MinMax
	if !res.Found {
		fmt.Println("no candidate improves the longest coffee walk")
		return
	}
	fmt.Printf("place the second coffee machine in %s\n", venue.Partition(res.Answer).Name)
	fmt.Printf("longest walk to coffee drops to %.1f m\n", res.Objective)
	fmt.Printf("(%d exact indoor distance computations, %d clients pruned)\n",
		res.Stats.DistanceCalcs, res.Stats.PrunedClients)
}
