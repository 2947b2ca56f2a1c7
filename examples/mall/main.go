// Mall: the paper's advertising scenario on the Melbourne Central venue —
// an agency may install a booth in any shop that is not dining &
// entertainment, and wants the location that captures the most visitors
// (MaxSum: the booth becomes their nearest point of interest), comparing it
// with the MinMax choice.
//
// This is the paper's "real setting": existing facilities are the rooms of
// one shop category, candidates are all remaining rooms.
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
	venue, err := ifls.SampleVenue("MC")
	if err != nil {
		log.Fatal(err)
	}
	s := venue.Stats()
	fmt.Printf("venue %q: %d partitions, %d doors, %d levels\n", venue.Name, s.Partitions, s.Doors, s.Levels)

	gen := ifls.NewWorkloadGenerator(venue)
	existing, candidates, err := gen.RealSetting("dining & entertainment")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("real setting: %d dining & entertainment shops as existing facilities, %d candidate rooms\n",
		len(existing), len(candidates))

	// Visitors cluster near the center of the mall (normal distribution).
	rng := rand.New(rand.NewSource(2023))
	visitors, err := gen.Clients(5000, ifls.Normal, 0.5, rng)
	if err != nil {
		log.Fatal(err)
	}

	ix, err := ifls.NewIndex(venue)
	if err != nil {
		log.Fatal(err)
	}
	q := &ifls.Query{Existing: existing, Candidates: candidates, Clients: visitors}
	query := func(obj ifls.Objective) ifls.Answer {
		a, err := ix.Query(context.Background(), q, ifls.QueryOptions{Objective: obj})
		if err != nil {
			log.Fatal(err)
		}
		return a
	}

	start := time.Now()
	maxSum := query(ifls.MaxSum).Ext
	fmt.Printf("\n[maxsum]  %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  booth location: %s — captures %.0f of %d visitors\n",
		venue.Partition(maxSum.Answer).Name, maxSum.Objective, len(visitors))

	start = time.Now()
	minMax := query(ifls.MinMax).MinMax
	fmt.Printf("[minmax]  %v\n", time.Since(start).Round(time.Millisecond))
	if minMax.Found {
		fmt.Printf("  coverage location: %s — worst visitor walk becomes %.1f m\n",
			venue.Partition(minMax.Answer).Name, minMax.Objective)
	} else {
		fmt.Println("  no candidate shortens the worst visitor's walk")
	}

	start = time.Now()
	minDist := query(ifls.MinDist).Ext
	fmt.Printf("[mindist] %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  total-distance location: %s — average walk %.1f m\n",
		venue.Partition(minDist.Answer).Name, minDist.Objective/float64(len(visitors)))
}
