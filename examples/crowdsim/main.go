// Crowdsim: continuous IFLS over a moving crowd — the paper's future-work
// scenario made concrete. A population of walkers roams Copenhagen Airport
// along exact shortest indoor routes; every few simulated minutes the
// operator re-selects the best spot for a mobile service cart so the worst
// passenger walk stays short, using a warm query session.
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
	venue, err := ifls.SampleVenue("CPH")
	if err != nil {
		log.Fatal(err)
	}
	ix, err := ifls.NewIndex(venue)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := ix.NewSimulation(ifls.SimulationConfig{
		Walkers: 800,
		Speed:   1.4,
		Dwell:   2 * time.Minute,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Existing service points and candidate cart positions.
	gen := ifls.NewWorkloadGenerator(venue)
	existing, candidates, err := gen.Facilities(8, 25, rand.New(rand.NewSource(3)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("venue %q: %d walkers, %d service points, %d candidate cart spots\n\n",
		venue.Name, 800, len(existing), len(candidates))

	sess := ix.NewSession()
	prev := ifls.NoPartition
	for round := 0; round < 6; round++ {
		// Let the crowd move for five simulated minutes.
		for i := 0; i < 5*60; i++ {
			sim.Step(time.Second)
		}
		q := &ifls.Query{Existing: existing, Candidates: candidates, Clients: sim.Snapshot()}
		start := time.Now()
		a, err := sess.Query(context.Background(), q, ifls.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		res := a.MinMax
		elapsed := time.Since(start)
		if !res.Found {
			fmt.Printf("t=%-6v no cart position helps (crowd already near service points)\n", sim.Elapsed())
			continue
		}
		move := ""
		if res.Answer != prev && prev != ifls.NoPartition {
			move = "  <- cart moves"
		}
		fmt.Printf("t=%-6v cart -> %-8s worst walk %6.1f m   (solved in %v, %d clients pruned)%s\n",
			sim.Elapsed(), venue.Partition(res.Answer).Name, res.Objective,
			elapsed.Round(time.Millisecond), res.Stats.PrunedClients, move)
		prev = res.Answer
	}

	// Where is the crowd densest right now?
	occ := sim.Occupancy()
	bestPart, bestCount := ifls.NoPartition, 0
	for p, n := range occ {
		if n > bestCount {
			bestPart, bestCount = p, n
		}
	}
	fmt.Printf("\nbusiest partition at t=%v: %s with %d walkers\n",
		sim.Elapsed(), venue.Partition(bestPart).Name, bestCount)
}
