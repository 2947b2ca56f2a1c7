// University: place a new printer in the Menzies Building (the paper's
// university scenario) — students and staff are spread over 16 levels and
// the new printer should minimize the maximum walk to the nearest one.
//
// The example also demonstrates plain index queries: indoor distances
// between arbitrary points and nearest-facility lookups.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	ifls "github.com/indoorspatial/ifls"
)

func main() {
	venue, err := ifls.SampleVenue("MZB")
	if err != nil {
		log.Fatal(err)
	}
	s := venue.Stats()
	fmt.Printf("venue %q: %d rooms, %d doors, %d levels\n", venue.Name, s.Rooms, s.Doors, s.Levels)

	start := time.Now()
	ix, err := ifls.NewIndex(venue)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VIP-tree built in %v\n\n", time.Since(start).Round(time.Millisecond))

	gen := ifls.NewWorkloadGenerator(venue)
	rng := rand.New(rand.NewSource(11))
	// Six printers exist; twenty rooms could host the next one.
	existing, candidates, err := gen.Facilities(6, 20, rng)
	if err != nil {
		log.Fatal(err)
	}
	occupants, err := gen.Clients(2000, ifls.Uniform, 0, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Plain distance query between two occupants on different levels.
	a, b := occupants[0], occupants[1]
	d, err := ix.Distance(a.Loc, b.Loc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indoor distance %v -> %v: %.1f m\n", a.Loc, b.Loc, d)

	// Who is occupant 0's nearest printer today?
	nearest, nd, ok := ix.NearestFacility(a.Loc, existing)
	if !ok {
		log.Fatal("no printers?")
	}
	fmt.Printf("occupant 0's nearest printer: %s at %.1f m\n\n", venue.Partition(nearest).Name, nd)

	q := &ifls.Query{Existing: existing, Candidates: candidates, Clients: occupants}
	start = time.Now()
	ans, err := ix.Query(context.Background(), q, ifls.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res := ans.MinMax
	fmt.Printf("IFLS solved in %v\n", time.Since(start).Round(time.Millisecond))
	if !res.Found {
		fmt.Println("no candidate shortens the worst walk to a printer")
		return
	}
	fmt.Printf("new printer goes to %s: worst walk drops to %.1f m\n",
		venue.Partition(res.Answer).Name, res.Objective)
	fmt.Printf("work: %d distance computations, %d of %d clients pruned before the answer\n",
		res.Stats.DistanceCalcs, res.Stats.PrunedClients, len(occupants))
}
