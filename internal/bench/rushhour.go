package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"github.com/indoorspatial/ifls/internal/continuous"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/temporal"
)

// Rush-hour sweep shape: the clock starts just before two scheduled door
// transitions (a 09:00 opening and a 09:10 closing of a midnight-wrapping
// schedule) and ticks through both, so the measured window mixes
// steady-state ticks with the engine's worst case — an era rebuild.
const (
	rushClockStart = 8*time.Hour + 55*time.Minute
	rushTick       = 30 * time.Second
	rushTicks      = 80
	// rushDwell is the pause at each walker goal — 20 simulated minutes, a
	// shopper browsing a store or a traveller parked at a gate, so at any
	// tick a realistic majority of the crowd is stationary.
	rushDwell      = 20 * time.Minute
	rushMaxWalkers = 500
	rushMinWalkers = 50
)

// RushHour measures the continuous engine (internal/continuous) against the
// only alternative a moving-crowd deployment has: re-running the full
// solver on every tick's snapshot. One standing MinMax query per venue at
// the venue's Table-2 default facility sets; a seeded walker population
// steps in 30 s ticks from 08:55 through two door-schedule transitions.
// Per tick the engine's incremental maintenance (diff the snapshot, resolve
// the moved clients that can set the answer, combine) is timed against the
// from-scratch alternative, and the two answers are required to be
// identical — the table is a benchmark and a differential test at once.
// res/tick, reuse/tick and carry/tick split the walkers as Event's
// Resolved, Reused and Carried do. Both columns price
// a full deployment tick: inc-tick is Engine.Tick (simulation step + era
// rebuilds + incremental maintenance); scratch steps an identically-seeded
// twin simulation and runs core.Exec over the engine's snapshot.
func RushHour(w io.Writer, r *Runner, cfg Config) ([]Measurement, error) {
	writeHeader(w, "Rush hour — standing query vs per-tick re-solve, two door transitions")
	fmt.Fprintf(w, "%-6s %8s %6s %6s %10s %10s %10s %12s %12s %9s\n",
		"venue", "walkers", "ticks", "trans", "res/tick", "reuse/tick", "carry/tick", "inc-tick", "scratch", "speedup")
	ctx := context.Background()
	for _, name := range cfg.Venues {
		v, err := r.Venue(name)
		if err != nil {
			return nil, err
		}
		tree, err := r.Tree(name)
		if err != nil {
			return nil, err
		}
		g, err := r.Generator(name)
		if err != nil {
			return nil, err
		}
		p := Table2[name]
		rng := rand.New(rand.NewSource(cfg.Seed))
		fe, fn, err := g.Facilities(p.FeDefault, p.FnDefault, rng)
		if err != nil {
			return nil, err
		}

		tt := temporal.NewTimetable(v)
		scheduled, err := scheduleRushDoors(tt, v)
		if err != nil {
			return nil, fmt.Errorf("rushhour %s: %w", name, err)
		}
		if scheduled == 0 {
			// Every door is a bridge (tree-shaped venue): no door can
			// close without stranding a partition, so this venue's row
			// benchmarks the moving-clients path alone.
			tt = nil
		}

		walkers := cfg.ClientDefault / 20
		if walkers > rushMaxWalkers {
			walkers = rushMaxWalkers
		}
		if walkers < rushMinWalkers {
			walkers = rushMinWalkers
		}
		simCfg := motion.Config{Walkers: walkers, Dwell: rushDwell, Seed: cfg.Seed}
		sim, err := motion.NewSimulation(v, tree.Graph(), simCfg)
		if err != nil {
			return nil, err
		}
		// The from-scratch side must pay for observing the moving crowd
		// too: an identically-seeded twin simulation (the population is
		// deterministic in the seed) is stepped inside its timed region.
		twin, err := motion.NewSimulation(v, tree.Graph(), simCfg)
		if err != nil {
			return nil, err
		}
		eng, err := continuous.New(continuous.Config{
			Tree: tree, Sim: sim, Existing: fe, Candidates: fn,
			Timetable: tt, ClockStart: rushClockStart, Metrics: r.Metrics,
		})
		if err != nil {
			return nil, err
		}

		var incTime, scratchTime time.Duration
		for i := 1; i <= rushTicks; i++ {
			start := time.Now()
			got, err := eng.Tick(rushTick)
			if err != nil {
				return nil, fmt.Errorf("rushhour %s: tick %d: %w", name, i, err)
			}
			incTime += time.Since(start)

			q := eng.Query()
			start = time.Now()
			twin.Step(rushTick)
			want, err := core.Exec(ctx, eng.Tree(), q, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("rushhour %s: tick %d: re-solve: %w", name, i, err)
			}
			scratchTime += time.Since(start)
			if !rushSameResult(got, want.MinMax) {
				return nil, fmt.Errorf("rushhour %s: tick %d: engine %+v, fresh solve %+v",
					name, i, got, want.MinMax)
			}
		}

		st := eng.Stats()
		incMean := incTime / rushTicks
		scratchMean := scratchTime / rushTicks
		ratio := 0.0
		if incMean > 0 {
			ratio = float64(scratchMean) / float64(incMean)
		}
		fmt.Fprintf(w, "%-6s %8d %6d %6d %10.1f %10.1f %10.1f %12s %12s %8.1fx\n",
			name, walkers, rushTicks, st.Transitions,
			float64(st.Resolved)/rushTicks, float64(st.Reused)/rushTicks, float64(st.Carried)/rushTicks,
			incMean.Round(time.Microsecond), scratchMean.Round(time.Microsecond), ratio)
	}
	return nil, nil
}

// scheduleRushDoors gives up to two doors the sweep's schedules: the first
// viable door opens at 09:00 (closed before), the second closes at 09:10 (a
// midnight-wrapping window, open before). A door is viable when closing it
// leaves the venue connected, probed with a snapshot at a time the door is
// shut; doors whose closure would strand a partition are skipped. Returns
// how many doors were scheduled — 0 on a tree-shaped venue where every door
// is a bridge.
func scheduleRushDoors(tt *temporal.Timetable, v *indoor.Venue) (int, error) {
	morning := temporal.Daily(9*time.Hour, 17*time.Hour)
	overnight := temporal.Daily(22*time.Hour, 9*time.Hour+10*time.Minute)
	scheduled := 0
	for d := 0; d < v.NumDoors() && scheduled < 2; d++ {
		id := indoor.DoorID(d)
		sched, probe := morning, rushClockStart
		if scheduled == 1 {
			sched, probe = overnight, 9*time.Hour+12*time.Minute
		}
		if err := tt.SetDoor(id, sched); err != nil {
			return scheduled, err
		}
		if _, _, err := tt.Snapshot(probe); err != nil {
			if err := tt.SetDoor(id, temporal.Schedule{}); err != nil {
				return scheduled, err
			}
			continue
		}
		scheduled++
	}
	return scheduled, nil
}

// rushSameResult is exact result equality with NaN-tolerant objectives,
// mirroring the engine's own answer-change test.
func rushSameResult(a, b core.Result) bool {
	if a.Found != b.Found || a.Answer != b.Answer {
		return false
	}
	if math.IsNaN(a.Objective) && math.IsNaN(b.Objective) {
		return true
	}
	return a.Objective == b.Objective
}
