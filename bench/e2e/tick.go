package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/indoorspatial/ifls"
	"github.com/indoorspatial/ifls/internal/continuous"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/temporal"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

const (
	tickWalkers = 500
	tickDT      = 30 * time.Second
	// tickDwell is the pause at each goal. At 30 s ticks it keeps most of
	// the crowd walking, so a tick re-resolves most clients.
	tickDwell = 2 * time.Minute
	// tickPrewarm steps the crowd before the engine starts, so the timed
	// ticks see a settled mix of walkers and dwellers instead of everyone
	// leaving at once.
	tickPrewarm    = 30 * time.Minute
	tickClockStart = 8 * time.Hour
	// doorPeriod is how long each scheduled door stays closed in turn, so
	// every 8th tick rebuilds the topology era. One in 8, not one in 10,
	// keeps op_p90_ms inside the rebuild ticks rather than on the edge
	// between the two kinds of tick.
	doorPeriod = 4 * time.Minute
	// rotatingDoors is how many doors take turns. A rebuild's cost depends
	// on the door; six per seed, not two, bring the spread of op_p90_ms
	// over seeds down to that of one seed repeated. The cycle, 24
	// minutes, divides the day.
	rotatingDoors = 6
	// maxTransitionChecks caps the door-transition ticks checked per run.
	maxTransitionChecks = 96
	// crowdWarmup is how many untimed ticks tick-ch-crowd runs before it
	// measures. The engine memoizes a partition's explorer and distance
	// signature the first time it resolves a walker there; on CH the
	// first ~150 ticks pay for most of them and run 2-7x slower than the
	// settled ticks. Their time counts in setup_s. tick-mc-doors needs
	// none: every era rebuild drops the memo, so its ticks repeat with an
	// 8-tick period from the start.
	crowdWarmup = 200
)

// crowdChecks are the measured tick-ch-crowd ticks checked against a fresh
// solve, which costs seconds on CH; the run's last tick is checked too.
var crowdChecks = map[int]bool{1: true, 100: true, 300: true}

// tickState is a tick workload's engine, with the identically seeded twin
// simulation the traced phase times the crowd step on.
type tickState struct {
	eng  *continuous.Engine
	tt   *temporal.Timetable
	twin *motion.Simulation
	ev   continuous.Event
}

func newTickState(r *result, cfg config, venue string, doors bool) (*tickState, error) {
	v, err := ifls.SampleVenue(venue)
	if err != nil {
		return nil, err
	}
	tree, err := r.buildTree(v)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	fe, fn, err := workload.NewGenerator(v).Facilities(queryExisting, queryCandidates, rng)
	if err != nil {
		return nil, err
	}
	s := &tickState{}
	if doors {
		if s.tt, err = rotateDoors(v, rng); err != nil {
			return nil, err
		}
	}
	sim, err := crowd(v, tree, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if s.twin, err = crowd(v, tree, cfg.seed); err != nil {
			return nil, err
		}
	}
	s.eng, err = continuous.New(continuous.Config{
		Tree: tree, Sim: sim, Existing: fe, Candidates: fn,
		Timetable: s.tt, ClockStart: tickClockStart,
	})
	if err != nil {
		return nil, err
	}
	s.eng.Subscribe(func(ev continuous.Event) {
		if ev.Kind == continuous.EventTick {
			s.ev = ev
		}
	})
	return s, nil
}

// crowd builds the walker population and lets it settle.
func crowd(v *indoor.Venue, tree *vip.Tree, seed int64) (*motion.Simulation, error) {
	sim, err := motion.NewSimulation(v, tree.Graph(), motion.Config{Walkers: tickWalkers, Dwell: tickDwell, Seed: seed})
	if err != nil {
		return nil, err
	}
	for t := time.Duration(0); t < tickPrewarm; t += tickDT {
		sim.Step(tickDT)
	}
	return sim, nil
}

// rotateDoors picks, in seeded order, rotatingDoors doors whose closing
// leaves the venue connected, and closes them in turn for doorPeriod each,
// all day: the first from 00:00, the second from 00:04, and so on, the
// first again once every door has had its turn.
func rotateDoors(v *indoor.Venue, rng *rand.Rand) (*temporal.Timetable, error) {
	const cycle = rotatingDoors * doorPeriod
	scheds := make([]temporal.Schedule, rotatingDoors) // opening windows
	for j := range scheds {
		closed, reopened := time.Duration(j)*doorPeriod, time.Duration(j+1)*doorPeriod
		for t := time.Duration(0); t < 24*time.Hour; t += cycle {
			if closed > 0 {
				scheds[j].Intervals = append(scheds[j].Intervals, temporal.Interval{Open: t, Close: t + closed})
			}
			if reopened < cycle {
				scheds[j].Intervals = append(scheds[j].Intervals, temporal.Interval{Open: t + reopened, Close: t + cycle})
			}
		}
	}
	tt := temporal.NewTimetable(v)
	n := 0
	for _, d := range rng.Perm(v.NumDoors()) {
		if n == len(scheds) {
			return tt, nil
		}
		id := indoor.DoorID(d)
		if err := tt.SetDoor(id, scheds[n]); err != nil {
			return nil, err
		}
		if _, _, err := tt.Snapshot(time.Duration(n) * doorPeriod); err != nil {
			// Closing this door strands a partition.
			if err := tt.SetDoor(id, temporal.Always); err != nil {
				return nil, err
			}
			continue
		}
		n++
	}
	if n < len(scheds) {
		return nil, fmt.Errorf("venue %s has fewer than %d doors that can close", v.Name, len(scheds))
	}
	return tt, nil
}

func runTick(cfg config, venue string, doors bool) (*result, error) {
	r := newResult(cfg.probe)
	s, err := setup(r, func() (*tickState, error) { return newTickState(r, cfg, venue, doors) }, func(*tickState) {})
	if err != nil {
		return nil, err
	}
	name, warmup := "tick-ch-crowd", crowdWarmup
	if doors {
		name, warmup = "tick-mc-doors", 0
	}
	for i := 0; i < warmup; i++ {
		start := time.Now()
		if _, err := s.eng.Tick(tickDT); err != nil {
			return nil, fmt.Errorf("warm-up tick %d: %w", s.eng.Ticks(), err)
		}
		r.warmup.add(time.Since(start))
		if s.twin != nil {
			s.twin.Step(tickDT)
		}
	}
	// Memory is measured here, where the engine's state depends on the
	// seed alone: later, the memoized explorers depend on how many ticks
	// the run's time allowed.
	r.heap = heapAfterGC()

	var last core.Result
	var measured, lastChecked int
	transitionChecks := 0
	check := func(got core.Result) error {
		want, _, err := r.solve(s.eng.Tree(), s.eng.Query())
		if err != nil {
			return err
		}
		r.checked++
		lastChecked = measured
		if !sameResult(got, want) {
			fmt.Fprintf(os.Stderr, "%s: tick %d maintained %+v, core.Exec %+v\n", name, s.eng.Ticks(), got, want)
			r.failed++
		}
		return nil
	}

	for _, traced := range cfg.phases() {
		m := r.phase(traced)
		ops := 0
		var used time.Duration
		var resolved, reused, invalidated, transitions int
		for used < cfg.budget() {
			before := s.eng.Stats().Transitions
			start := time.Now()
			got, err := s.eng.Tick(tickDT)
			end := time.Now()
			used += end.Sub(start)
			r.attempted++
			measured++
			transition := s.eng.Stats().Transitions != before
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: tick %d: %v\n", name, s.eng.Ticks(), err)
				r.failed++
				continue
			}
			m.add(end.Sub(start))
			if traced {
				s.trace(r, measured, start, end, transition)
			}
			ops++
			last = got
			if traced {
				resolved += s.ev.Resolved
				reused += s.ev.Reused
				if transition {
					transitions++
					invalidated += s.ev.Invalidated
				}
			}
			due := crowdChecks[measured]
			if doors {
				due = transition && transitionChecks < maxTransitionChecks
				if due {
					transitionChecks++
				}
			}
			if due {
				if err := check(got); err != nil {
					return nil, err
				}
			}
		}
		if traced && ops > 0 {
			r.count("continuous.resolved_per_tick", float64(resolved)/float64(ops))
			r.count("continuous.reused_per_tick", float64(reused)/float64(ops))
			if transitions > 0 {
				r.count("continuous.invalidated_per_transition", float64(invalidated)/float64(transitions))
			}
		}
	}
	if lastChecked != measured {
		if err := check(last); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// trace records a tick's span and times, outside it and on the same
// inputs, the layer calls the tick made: the crowd step on the twin
// simulation and, on a transition into a closed-door era, the snapshot
// venue, its door graph and its index.
func (s *tickState) trace(r *result, op int, start, end time.Time, transition bool) {
	root := r.spans.add(op, -1, "continuous.tick", start, end)
	t := time.Now()
	s.twin.Step(tickDT)
	r.spans.add(op, root, "motion.step", t, time.Now())
	if !transition || s.tt == nil || allOpen(s.tt.Mask(s.eng.Clock())) {
		return // no era rebuild: the engine reuses the base index
	}
	t = time.Now()
	venue, _, err := s.tt.Snapshot(s.eng.Clock())
	r.spans.add(op, root, "temporal.snapshot", t, time.Now())
	if err != nil {
		return
	}
	t = time.Now()
	_, err = vip.Build(venue, vip.DefaultOptions())
	build := r.spans.add(op, root, "vip.era_build", t, time.Now())
	if err != nil {
		return
	}
	t = time.Now()
	d2d.New(venue)
	r.spans.add(op, build, "d2d.graph", t, time.Now())
}

func allOpen(mask []bool) bool {
	for _, open := range mask {
		if !open {
			return false
		}
	}
	return true
}
