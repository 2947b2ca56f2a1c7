// Command e2e is the repository's end-to-end benchmark. It drives the
// library through its exported functions, from one process, on four
// workloads:
//
//   - serve-mc: distinct MinMax queries POSTed to an in-process iflsd-style
//     server over loopback by one closed-loop client (the daemon's steady
//     path);
//   - restart-mc: open a paged MC index file, start a server, answer one
//     query, close (the -indexfile boot);
//   - tick-mc-doors: the continuous engine on MC while six doors take turns
//     being closed, so every 8th tick rebuilds a topology era;
//   - tick-ch-crowd: the continuous engine on the tree-shaped CH venue,
//     where no door can close and per-client resolve dominates.
//
// Each run builds its state several times (setup_s is the median), runs
// the workload's operations for --seconds, checks the answers against a
// fresh core.Exec outside the timed window, and prints a report followed by
// one JSON line with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Times are normalized by a host-speed probe run
// between operations (see measure.go). Run it from the repository root:
//
//	bash bench/e2e/run.sh --workload serve-mc --seed 1 --seconds 15 --trace 0
//	bash bench/e2e/run.sh --seed 1 --out ledger.json     # every workload
//	bash bench/e2e/run.sh --diff base.json change.json  # compare ledgers
//
// bench/e2e/README.md lists the metrics and how to read a diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. An operation is one query round trip
// (serve-mc), one restart to first answer (restart-mc) or one
// Engine.Tick (tick-*).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_mib", "MiB"},
}

// layers are the span-name prefixes whose self time is reported as a share
// of the traced operations' time.
var layers = []string{"server", "core", "pager", "motion", "temporal", "vip", "d2d", "continuous"}

// perLayer are the metrics of single layers, reported by every workload
// with --trace 1. A layer a workload does not use reports a share or count
// of 0; every time in milliseconds is measured on every workload.
var perLayer = append([]metricDef{
	{"core.locate_ms", "ms"},
	{"core.traverse_ms", "ms"},
	{"core.queue_pops_per_query", "count"},
	{"core.distance_calcs_per_query", "count"},
	{"core.pruned_ratio", "ratio"},
	{"vip.build_ms", "ms"},
	{"trace.op_mean_ms", "ms"},
	{"server.coalesce_hit_ratio", "ratio"},
	{"pager.pages_read_per_op", "count"},
	{"pager.hit_ratio", "ratio"},
	{"continuous.resolved_per_tick", "count"},
	{"continuous.reused_per_tick", "count"},
	{"continuous.invalidated_per_transition", "count"},
}, selfShares()...)

func selfShares() []metricDef {
	out := make([]metricDef, len(layers))
	for i, l := range layers {
		out[i] = metricDef{l + ".self_pct", "%"}
	}
	return out
}

// workloads lists the benchmark's workloads in run order.
var workloads = []struct {
	name string
	run  func(cfg config) (*result, error)
}{
	{"serve-mc", runServe},
	{"restart-mc", runRestart},
	{"tick-mc-doors", func(cfg config) (*result, error) { return runTick(cfg, "MC", true) }},
	{"tick-ch-crowd", func(cfg config) (*result, error) { return runTick(cfg, "CH", false) }},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dir holds the run's index files.
	dir   string
	probe *probe
}

// phases returns the measured phases: the whole budget untraced, or with
// tracing a traced half followed by an untraced half, whose difference is
// the tracing overhead.
func (c config) phases() []bool {
	if c.trace {
		return []bool{true, false}
	}
	return []bool{false}
}

// budget is the operation time each phase measures.
func (c config) budget() time.Duration {
	return c.seconds / time.Duration(len(c.phases()))
}

// output is the last line a run prints.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 15, "operation time measured per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spansFile := flag.String("spans", "", "with --trace 1, write the traced spans to this file")
	out := flag.String("out", "", "append the run's metrics to this ledger file")
	diff := flag.Bool("diff", false, "compare two ledger files: --diff BASE CHANGE")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2e: --diff needs two ledger files")
			return 2
		}
		return diffLedgers(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2e: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2e: --seconds must be positive")
		return 2
	}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *workload)
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p, err := newProbe()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer p.close()

	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		dir:     dir,
		probe:   p,
	}
	code := 0
	for _, name := range names {
		o, res, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", name, err)
			return 1
		}
		report(os.Stdout, name, cfg, res)
		if cfg.trace && *spansFile != "" {
			path := *spansFile
			if len(names) > 1 {
				path = strings.TrimSuffix(path, filepath.Ext(path)) + "-" + name + filepath.Ext(path)
			}
			if err := res.spans.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				return 1
			}
		}
		if *out != "" && o.Correct {
			if err := appendLedger(*out, name, cfg, o); err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				return 1
			}
		}
		line, err := json.Marshal(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 1
		}
		fmt.Println(string(line))
		if !o.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload and renders its metrics.
func runWorkload(name string, cfg config) (output, *result, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		res, err := w.run(cfg)
		if err != nil {
			return output{}, nil, err
		}
		defs, values := endToEnd, res.endToEnd()
		if cfg.trace {
			defs, values = perLayer, res.perLayer()
		}
		o := output{
			Correct:   res.failed == 0 && res.attempted > 0,
			Attempted: res.attempted,
			Failed:    res.failed,
			Metrics:   make(map[string]metricValue, len(defs)),
		}
		for _, d := range defs {
			o.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		}
		return o, res, nil
	}
	return output{}, nil, fmt.Errorf("unknown workload %q", name)
}
