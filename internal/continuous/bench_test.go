package continuous

import (
	"math/rand"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// BenchmarkTick times steady ticks of a standing query on MC and CH, set
// up like the tick end-to-end workloads but without a door timetable: 500
// walkers with a 2 min dwell, stepped 30 simulated minutes before the
// engine starts; |Fe|=20 and |Fn|=50 facilities; seed 1; 30 s ticks, the
// first 200 untimed so that the per-partition signatures are memoized.
// It reports the clients resolved per timed tick, which is fixed for a
// given -benchtime Nx.
func BenchmarkTick(b *testing.B) {
	const dt = 30 * time.Second
	for _, name := range []string{"MC", "CH"} {
		b.Run(name, func(b *testing.B) {
			v, err := venues.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			tree := vip.MustBuild(v, vip.DefaultOptions())
			fe, fn, err := workload.NewGenerator(v).Facilities(20, 50, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			sim, err := motion.NewSimulation(v, tree.Graph(), motion.Config{Walkers: 500, Dwell: 2 * time.Minute, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for t := time.Duration(0); t < 30*time.Minute; t += dt {
				sim.Step(dt)
			}
			eng, err := New(Config{Tree: tree, Sim: sim, Existing: fe, Candidates: fn, ClockStart: 8 * time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if _, err := eng.Tick(dt); err != nil {
					b.Fatal(err)
				}
			}
			before := eng.Stats().Resolved
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Tick(dt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Stats().Resolved-before)/float64(b.N), "resolved/tick")
		})
	}
}
