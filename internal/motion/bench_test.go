package motion

import (
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/venues"
)

// BenchmarkSimulationStep times one 30 s crowd step of 500 walkers with a
// 2 min dwell, the tick workloads' crowd. A 30 min prewarm first settles
// the mix of walkers and dwellers and fills the graph's route trees for
// the rooms walkers have left so far.
func BenchmarkSimulationStep(b *testing.B) {
	const (
		walkers = 500
		dwell   = 2 * time.Minute
		step    = 30 * time.Second
		prewarm = 30 * time.Minute
	)
	for _, name := range []string{"MC", "CH"} {
		b.Run(name, func(b *testing.B) {
			v, err := venues.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := NewSimulation(v, d2d.New(v), Config{Walkers: walkers, Dwell: dwell, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for t := time.Duration(0); t < prewarm; t += step {
				sim.Step(step)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step(step)
			}
		})
	}
}
