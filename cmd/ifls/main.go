// Command ifls runs a single Indoor Facility Location Selection query on a
// generated or loaded venue and reports the answer, the objective, and the
// solver's work counters.
//
// Usage:
//
//	ifls -venue MC -exist 75 -cand 150 -clients 10000 -solver efficient
//	ifls -venue MC -category "dining & entertainment" -clients 5000
//	ifls -venuefile building.json -exist 5 -cand 10 -clients 200 -objective mindist
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	ifls "github.com/indoorspatial/ifls"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifls:", err)
		os.Exit(1)
	}
}

func run() error {
	venueName := flag.String("venue", "MC", "generated venue: MC, CH, CPH, or MZB")
	venueFile := flag.String("venuefile", "", "load venue JSON instead of generating")
	category := flag.String("category", "", "real setting: use this shop category as existing facilities (MC)")
	nExist := flag.Int("exist", 75, "number of existing facilities (synthetic setting)")
	nCand := flag.Int("cand", 150, "number of candidate locations (synthetic setting)")
	nClients := flag.Int("clients", 1000, "number of clients")
	dist := flag.String("dist", "uniform", "client distribution: uniform or normal")
	sigma := flag.Float64("sigma", 0.5, "sigma of the normal distribution")
	seed := flag.Int64("seed", 1, "random seed")
	solver := flag.String("solver", "efficient", "solver: efficient, baseline, or both")
	objective := flag.String("objective", "minmax", "objective: minmax, mindist, or maxsum")
	flag.Parse()

	var venue *ifls.Venue
	var err error
	if *venueFile != "" {
		f, err := os.Open(*venueFile)
		if err != nil {
			return err
		}
		venue, err = ifls.LoadVenue(f)
		f.Close()
		if err != nil {
			return err
		}
	} else if venue, err = ifls.SampleVenue(*venueName); err != nil {
		return err
	}
	s := venue.Stats()
	fmt.Printf("venue %q: %d partitions, %d doors, %d levels\n", venue.Name, s.Partitions, s.Doors, s.Levels)

	var d ifls.Distribution
	switch *dist {
	case "uniform":
		d = ifls.Uniform
	case "normal":
		d = ifls.Normal
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}

	rng := rand.New(rand.NewSource(*seed))
	gen := ifls.NewWorkloadGenerator(venue)
	var q *ifls.Query
	if *category != "" {
		fe, fn, err := gen.RealSetting(*category)
		if err != nil {
			return err
		}
		clients, err := gen.Clients(*nClients, d, *sigma, rng)
		if err != nil {
			return err
		}
		q = &ifls.Query{Existing: fe, Candidates: fn, Clients: clients}
	} else {
		var err error
		q, err = gen.Query(*nExist, *nCand, *nClients, d, *sigma, rng)
		if err != nil {
			return err
		}
	}
	fmt.Printf("query: |Fe|=%d |Fn|=%d |C|=%d dist=%s sigma=%g\n",
		len(q.Existing), len(q.Candidates), len(q.Clients), d, *sigma)

	buildStart := time.Now()
	ix, err := ifls.NewIndex(venue)
	if err != nil {
		return err
	}
	fmt.Printf("index built in %v\n\n", time.Since(buildStart).Round(time.Millisecond))

	objectives := map[string]ifls.Objective{
		"efficient": ifls.MinMax, "baseline": ifls.Baseline, "mindist": ifls.MinDist, "maxsum": ifls.MaxSum,
	}
	var runs []string
	switch *objective {
	case "minmax":
		if *solver == "efficient" || *solver == "both" {
			runs = append(runs, "efficient")
		}
		if *solver == "baseline" || *solver == "both" {
			runs = append(runs, "baseline")
		}
	case "mindist", "maxsum":
		runs = []string{*objective}
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}
	for _, name := range runs {
		obj := objectives[name]
		start := time.Now()
		a, err := ix.Query(context.Background(), q, ifls.QueryOptions{Objective: obj})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s] %v\n", name, time.Since(start).Round(time.Microsecond))
		if obj == ifls.MinMax || obj == ifls.Baseline {
			report(a.MinMax, venue)
		} else {
			reportExt(a.Ext, venue)
		}
	}
	return nil
}

func report(res ifls.Result, venue *ifls.Venue) {
	if res.Found {
		p := venue.Partition(res.Answer)
		fmt.Printf("  answer: partition %d (%s) — objective %.2f m\n", res.Answer, p.Name, res.Objective)
	} else {
		fmt.Println("  no candidate improves the current worst client distance")
	}
	printStats(res.Stats)
}

func reportExt(res ifls.ExtResult, venue *ifls.Venue) {
	if res.Answer == ifls.NoPartition {
		fmt.Println("  no answer (empty query)")
		return
	}
	p := venue.Partition(res.Answer)
	fmt.Printf("  answer: partition %d (%s) — objective %.2f (improves: %v)\n",
		res.Answer, p.Name, res.Objective, res.Improves)
	printStats(res.Stats)
}

func printStats(s ifls.Stats) {
	fmt.Printf("  stats: %d distance calcs, %d retrievals, %d queue pops, %d pruned, %d considered\n",
		s.DistanceCalcs, s.Retrievals, s.QueuePops, s.PrunedClients, s.ConsideredClients)
}
