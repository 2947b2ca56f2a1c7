// Hospital: the paper's motivating scenario — pick the ward that minimizes
// the maximum distance from any patient bed to its nearest nurse station.
//
// The example builds a three-floor hospital wing with the venue Builder
// (wards along a corridor per floor, stairwells connecting floors), places
// beds, and compares the MinMax answer of the efficient approach against
// the baseline, including their work counters.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	ifls "github.com/indoorspatial/ifls"
)

const (
	floors       = 3
	wardsPerSide = 8
	wardW        = 12.0
	wardD        = 9.0
	corrW        = 5.0
)

func buildWing() (*ifls.Venue, [][]ifls.PartitionID) {
	b := ifls.NewBuilder("hospital-wing")
	corrLen := float64(wardsPerSide) * wardW
	wards := make([][]ifls.PartitionID, floors)
	corridors := make([]ifls.PartitionID, floors)
	for lv := 0; lv < floors; lv++ {
		c := b.AddCorridor(ifls.R(0, wardD, corrLen, wardD+corrW, lv), fmt.Sprintf("corridor-%d", lv))
		corridors[lv] = c
		for i := 0; i < wardsPerSide; i++ {
			x0 := float64(i) * wardW
			s := b.AddRoom(ifls.R(x0, 0, x0+wardW, wardD, lv), fmt.Sprintf("ward-%dS%d", lv, i), "ward")
			n := b.AddRoom(ifls.R(x0, wardD+corrW, x0+wardW, 2*wardD+corrW, lv), fmt.Sprintf("ward-%dN%d", lv, i), "ward")
			b.AddDoor(ifls.Pt(x0+wardW/2, wardD, lv), s, c)
			b.AddDoor(ifls.Pt(x0+wardW/2, wardD+corrW, lv), n, c)
			wards[lv] = append(wards[lv], s, n)
		}
	}
	for lv := 0; lv+1 < floors; lv++ {
		st := b.AddStair(ifls.R(corrLen, wardD, corrLen+corrW, wardD+corrW, lv), fmt.Sprintf("stair-%d", lv), 16)
		b.AddDoor(ifls.Pt(corrLen, wardD+corrW/2, lv), corridors[lv], st)
		b.AddDoor(ifls.Pt(corrLen, wardD+corrW/2, lv+1), corridors[lv+1], st)
	}
	v, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return v, wards
}

func main() {
	venue, wards := buildWing()
	ix, err := ifls.NewIndex(venue)
	if err != nil {
		log.Fatal(err)
	}
	s := venue.Stats()
	fmt.Printf("built %q: %d wards on %d floors\n", venue.Name, s.Rooms, s.Levels)

	// One nurse station per floor already exists, at the west end.
	existing := []ifls.PartitionID{wards[0][0], wards[1][0], wards[2][0]}
	// Candidates: the east-end wards of every floor.
	var candidates []ifls.PartitionID
	for lv := 0; lv < floors; lv++ {
		candidates = append(candidates, wards[lv][len(wards[lv])-1], wards[lv][len(wards[lv])-2])
	}

	// Beds: four per ward, deterministic jitter.
	rng := rand.New(rand.NewSource(7))
	var beds []ifls.Client
	id := int32(0)
	for lv := range wards {
		for _, w := range wards[lv] {
			r := venue.Partition(w).Rect
			for k := 0; k < 4; k++ {
				p := ifls.Pt(
					r.Min.X+1+rng.Float64()*(r.Width()-2),
					r.Min.Y+1+rng.Float64()*(r.Height()-2),
					r.Level(),
				)
				beds = append(beds, ifls.Client{ID: id, Loc: p, Part: w})
				id++
			}
		}
	}
	q := &ifls.Query{Existing: existing, Candidates: candidates, Clients: beds}
	fmt.Printf("query: %d beds, %d existing stations, %d candidate wards\n\n",
		len(beds), len(existing), len(candidates))

	run := func(name string, obj ifls.Objective) ifls.Result {
		start := time.Now()
		a, err := ix.Query(context.Background(), q, ifls.QueryOptions{Objective: obj})
		if err != nil {
			log.Fatal(err)
		}
		res := a.MinMax
		fmt.Printf("%-10s %8v  answer=%-12s objective=%.1f m  (dist calcs %d, pruned %d)\n",
			name, time.Since(start).Round(time.Microsecond),
			venue.Partition(res.Answer).Name, res.Objective,
			res.Stats.DistanceCalcs, res.Stats.PrunedClients)
		return res
	}
	eff := run("efficient", ifls.MinMax)
	base := run("baseline", ifls.Baseline)
	if eff.Objective != base.Objective {
		log.Fatalf("solvers disagree: %v vs %v", eff.Objective, base.Objective)
	}
	fmt.Printf("\nboth solvers agree: add the nurse station in %s\n", venue.Partition(eff.Answer).Name)
}
