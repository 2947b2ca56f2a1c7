package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/venues"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

// Solver names the algorithms under comparison.
type Solver string

const (
	// Efficient is the paper's contribution (core.ObjMinMax).
	Efficient Solver = "efficient"
	// Baseline is the modified MinMax algorithm (core.ObjBaseline).
	Baseline Solver = "baseline"
)

// Solvers lists the compared algorithms in display order.
var Solvers = []Solver{Efficient, Baseline}

// Cell identifies one experiment point: a venue, a facility setting, a
// client population, and the sweep parameter values.
type Cell struct {
	Venue string
	// Category selects the real setting (existing facilities = rooms of
	// this category); empty selects the synthetic setting.
	Category string
	Dist     workload.Distribution
	Sigma    float64
	NClients int
	// NExist and NCand apply to the synthetic setting only.
	NExist, NCand int
	// Seed makes the cell's workloads reproducible.
	Seed int64
}

// String renders the cell compactly for table headers and errors.
func (c Cell) String() string {
	setting := "syn"
	if c.Category != "" {
		setting = "real:" + c.Category
	}
	return fmt.Sprintf("%s/%s |C|=%d |Fe|=%d |Fn|=%d %s sigma=%g",
		c.Venue, setting, c.NClients, c.NExist, c.NCand, c.Dist, c.Sigma)
}

// Measurement is the averaged outcome of running one solver on one cell.
type Measurement struct {
	Cell    Cell
	Solver  Solver
	Queries int
	// MeanTime is the mean query processing time.
	MeanTime time.Duration
	// MeanAllocMB is the mean allocation volume per query in MB: all
	// bytes allocated while the query ran, including transients the
	// garbage collector reclaims mid-query.
	MeanAllocMB float64
	// MeanRetainedMB is the mean peak retained-structure size per query
	// in MB — the paper's memory-cost metric: what the solver holds
	// simultaneously (per-client lists and distance vectors for the
	// efficient approach; the candidate cache for the baseline).
	MeanRetainedMB float64
	// Stats accumulates solver counters over all queries.
	Stats core.Stats
	// Found counts queries that returned an improving candidate.
	Found int
}

// Runner executes experiment cells. It caches venues, their VIP-trees, and
// workload generators, so repeated cells on the same venue amortize index
// construction — matching the paper, where Fe is indexed once offline.
//
// A Runner is single-goroutine: its caches are plain maps mutated on
// demand. (The measurements themselves must be serial anyway — concurrent
// cells would contend for cores and corrupt the timings. The parallel
// layer is exercised explicitly by the "parallel" figure instead.)
type Runner struct {
	// Queries is the number of queries averaged per cell; defaults to
	// QueriesPerCell.
	Queries int
	// Opts selects the index configuration; zero value means
	// vip.DefaultOptions.
	Opts vip.Options
	// Metrics, when non-nil, receives one span event per instrumented
	// solver stage and one aggregate observation per measured query; the
	// -metrics flag of cmd/iflsbench serves the result over expvar. Nil
	// keeps the measured path identical to the unobserved solvers.
	Metrics *obs.Metrics

	venuesByName map[string]*indoor.Venue
	trees        map[string]*vip.Tree
	gens         map[string]*workload.Generator
}

// NewRunner returns a Runner with the paper's defaults.
func NewRunner() *Runner {
	return &Runner{
		Queries:      QueriesPerCell,
		Opts:         vip.DefaultOptions(),
		venuesByName: map[string]*indoor.Venue{},
		trees:        map[string]*vip.Tree{},
		gens:         map[string]*workload.Generator{},
	}
}

// Venue returns (building and caching) the named venue.
func (r *Runner) Venue(name string) (*indoor.Venue, error) {
	if v, ok := r.venuesByName[name]; ok {
		return v, nil
	}
	v, err := venues.ByName(name)
	if err != nil {
		return nil, err
	}
	r.venuesByName[name] = v
	return v, nil
}

// Tree returns (building and caching) the VIP-tree of the named venue.
func (r *Runner) Tree(name string) (*vip.Tree, error) {
	if t, ok := r.trees[name]; ok {
		return t, nil
	}
	v, err := r.Venue(name)
	if err != nil {
		return nil, err
	}
	opts := r.Opts
	if opts == (vip.Options{}) {
		opts = vip.DefaultOptions()
	}
	t, err := vip.Build(v, opts)
	if err != nil {
		return nil, err
	}
	r.trees[name] = t
	return t, nil
}

// Generator returns (building and caching) the workload generator of the
// named venue.
func (r *Runner) Generator(name string) (*workload.Generator, error) {
	if g, ok := r.gens[name]; ok {
		return g, nil
	}
	v, err := r.Venue(name)
	if err != nil {
		return nil, err
	}
	g := workload.NewGenerator(v)
	r.gens[name] = g
	return g, nil
}

// buildQuery materializes the i-th query of a cell.
func (r *Runner) buildQuery(c Cell, i int) (*core.Query, error) {
	g, err := r.Generator(c.Venue)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed*1000 + int64(i)))
	var q *core.Query
	if c.Category != "" {
		fe, fn, err := g.RealSetting(c.Category)
		if err != nil {
			return nil, err
		}
		clients, err := g.Clients(c.NClients, c.Dist, c.Sigma, rng)
		if err != nil {
			return nil, err
		}
		q = &core.Query{Existing: fe, Candidates: fn, Clients: clients}
	} else {
		var err error
		q, err = g.Query(c.NExist, c.NCand, c.NClients, c.Dist, c.Sigma, rng)
		if err != nil {
			return nil, err
		}
	}
	return q, nil
}

// Run measures one solver on one cell, averaging over r.Queries queries. A
// non-positive query count is a configuration error: Run reports it
// explicitly (wrapping faults.ErrInvalidWorkload) instead of dividing the
// totals by zero when computing the means.
func (r *Runner) Run(c Cell, solver Solver) (Measurement, error) {
	if r.Queries <= 0 {
		return Measurement{}, fmt.Errorf("%w: runner configured with %d queries per cell; need at least 1",
			faults.ErrInvalidWorkload, r.Queries)
	}
	tree, err := r.Tree(c.Venue)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{Cell: c, Solver: solver, Queries: r.Queries}
	var totalTime time.Duration
	var totalAlloc, totalRetained float64
	for i := 0; i < r.Queries; i++ {
		q, err := r.buildQuery(c, i)
		if err != nil {
			return Measurement{}, err
		}
		if r.Metrics != nil {
			// The bench layer owns validation (like the serving layer), so
			// the validate stage is charged here, before the solver runs.
			v, err := r.Venue(c.Venue)
			if err != nil {
				return Measurement{}, err
			}
			vStart := time.Now()
			if err := q.Validate(v); err != nil {
				return Measurement{}, err
			}
			r.Metrics.Event(obs.Span{Stage: obs.StageValidate, Elapsed: time.Since(vStart)})
		}
		elapsed, allocMB, res, err := measure(tree, q, solver, r.Metrics)
		if err != nil {
			return Measurement{}, err
		}
		if r.Metrics != nil {
			r.Metrics.ObserveQuery(obs.QueryObservation{
				Elapsed:       elapsed,
				Clients:       len(q.Clients),
				Pruned:        res.Stats.PrunedClients,
				DistanceCalcs: res.Stats.DistanceCalcs,
				QueuePops:     res.Stats.QueuePops,
				Found:         res.Found,
				FinalGd:       res.Objective,
			})
		}
		totalTime += elapsed
		totalAlloc += allocMB
		totalRetained += float64(res.Stats.RetainedBytes) / (1 << 20)
		m.Stats.DistanceCalcs += res.Stats.DistanceCalcs
		m.Stats.Retrievals += res.Stats.Retrievals
		m.Stats.QueuePops += res.Stats.QueuePops
		m.Stats.PrunedClients += res.Stats.PrunedClients
		m.Stats.ConsideredClients += res.Stats.ConsideredClients
		m.Stats.RetainedBytes += res.Stats.RetainedBytes
		if res.Found {
			m.Found++
		}
	}
	m.MeanTime = totalTime / time.Duration(r.Queries)
	m.MeanAllocMB = totalAlloc / float64(r.Queries)
	m.MeanRetainedMB = totalRetained / float64(r.Queries)
	return m, nil
}

// measure runs one query under one solver, returning elapsed wall time and
// allocated MB. Naming a solver outside Solvers yields an error wrapping
// faults.ErrUnknownObjective instead of a panic, so a typo in a figure
// definition fails the whole run with a message. A non-nil metrics value
// is attached as core.Exec's span recorder so per-stage span counters
// accumulate alongside the timings.
func measure(tree *vip.Tree, q *core.Query, solver Solver, metrics *obs.Metrics) (time.Duration, float64, core.Result, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var obj core.Objective
	switch solver {
	case Efficient:
		obj = core.ObjMinMax
	case Baseline:
		obj = core.ObjBaseline
	default:
		return 0, 0, core.Result{}, fmt.Errorf("%w: bench solver %q", faults.ErrUnknownObjective, solver)
	}
	// A nil *obs.Metrics must stay a nil recorder interface so the measured
	// path is the solver's unobserved one.
	var rec obs.Recorder
	if metrics != nil {
		rec = metrics
	}
	er, err := core.Exec(context.Background(), tree, q, core.Options{Objective: obj, Recorder: rec})
	if err != nil {
		return 0, 0, core.Result{}, err
	}
	res := er.MinMax
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return elapsed, allocMB, res, nil
}
