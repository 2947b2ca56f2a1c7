package continuous

import (
	"slices"
	"testing"
	"time"
)

// BenchmarkTick times ticks of a standing query set up like the tick
// end-to-end workloads (newCrowd): 500 walkers, |Fe|=20 and |Fn|=50
// facilities, seed 1, 30 s ticks.
//
// MC and CH run without a door timetable, after 200 untimed ticks that
// memoize most per-partition signatures. They report the clients resolved
// per timed tick, which is fixed for a given -benchtime Nx.
//
// MC-doors runs MC under the six-door rotation of tick-mc-doors, with no
// untimed ticks, so every 8th tick crosses into a new era and signs its
// occupied partitions cold. It reports the median transition tick and the
// median steady tick separately, and the signatures computed per tick.
func BenchmarkTick(b *testing.B) {
	for _, name := range []string{"MC", "CH"} {
		b.Run(name, func(b *testing.B) {
			eng := newCrowd(b, name, 500, 1, false)
			for i := 0; i < 200; i++ {
				if _, err := eng.Tick(crowdDT); err != nil {
					b.Fatal(err)
				}
			}
			before := eng.Stats().Resolved
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Tick(crowdDT); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Stats().Resolved-before)/float64(b.N), "resolved/tick")
		})
	}
	b.Run("MC-doors", func(b *testing.B) {
		eng := newCrowd(b, "MC", 500, 1, true)
		var transition, steady []float64 // tick times in ms
		before := eng.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := eng.Stats().Transitions
			start := time.Now()
			if _, err := eng.Tick(crowdDT); err != nil {
				b.Fatal(err)
			}
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			if eng.Stats().Transitions != n {
				transition = append(transition, ms)
			} else {
				steady = append(steady, ms)
			}
		}
		b.StopTimer()
		if len(transition) > 0 {
			b.ReportMetric(median(transition), "transition-ms")
		}
		if len(steady) > 0 {
			b.ReportMetric(median(steady), "steady-ms")
		}
		b.ReportMetric(float64(eng.Stats().Signed-before.Signed)/float64(b.N), "signed/tick")
	})
}

// median returns the median of xs, reordering xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
