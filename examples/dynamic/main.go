// Dynamic: the paper's motivating dynamic-crowd scenario — the crowd in a
// venue shifts over the day, and the best spot for a pop-up facility must
// be recomputed each time. A Session reuses the venue-dependent distance
// vectors across queries, so repeated solves get cheaper after the first.
//
// The example simulates a day in Melbourne Central: the crowd's center of
// mass moves (modeled by re-drawing normally-distributed visitors with a
// different seed and sigma each hour) and the pop-up location is re-selected
// hourly, comparing warm-session and cold solve times.
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
	ix, err := ifls.NewIndex(venue)
	if err != nil {
		log.Fatal(err)
	}
	gen := ifls.NewWorkloadGenerator(venue)
	existing, candidates, err := gen.RealSetting("fresh food")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("venue %q: %d existing fresh-food shops, %d candidate rooms\n\n",
		venue.Name, len(existing), len(candidates))

	ctx := context.Background()
	sess := ix.NewSession()
	sigmas := []float64{0.25, 0.5, 1.0, 0.5, 0.25} // crowd spreads out and contracts
	var warmTotal, coldTotal time.Duration
	for hour, sigma := range sigmas {
		rng := rand.New(rand.NewSource(int64(hour) + 100))
		crowd, err := gen.Clients(3000, ifls.Normal, sigma, rng)
		if err != nil {
			log.Fatal(err)
		}
		q := &ifls.Query{Existing: existing, Candidates: candidates, Clients: crowd}

		start := time.Now()
		wa, err := sess.Query(ctx, q, ifls.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		warm := wa.MinMax
		warmTime := time.Since(start)
		warmTotal += warmTime

		start = time.Now()
		ca, err := ix.Query(ctx, q, ifls.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		cold := ca.MinMax
		coldTime := time.Since(start)
		coldTotal += coldTime

		if warm.Answer != cold.Answer {
			log.Fatalf("hour %d: session answer %d != one-shot %d", hour, warm.Answer, cold.Answer)
		}
		name := "(none)"
		if warm.Found {
			name = venue.Partition(warm.Answer).Name
		}
		fmt.Printf("hour %d (sigma %.2f): pop-up -> %-8s  session %8v  cold %8v\n",
			hour+10, sigma, name, warmTime.Round(time.Millisecond), coldTime.Round(time.Millisecond))
	}
	fmt.Printf("\ntotals: session %v vs cold %v (%.1fx less work after warm-up)\n",
		warmTotal.Round(time.Millisecond), coldTotal.Round(time.Millisecond),
		float64(coldTotal)/float64(warmTotal))
}
