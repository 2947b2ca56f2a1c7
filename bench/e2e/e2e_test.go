package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// TestCatalogMatchesBenchmarkJSON pins BENCHMARK.json to the workloads,
// metric names and units the benchmark emits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s: bound present %v, want %v", m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	// setup_s carries the largest bound: later changes must not move work
	// into set-up unseen, but set-up is measured from few samples.
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s bound %v", m.Name, *m.Bound, setup)
		}
	}
}

// TestQuickRun runs every workload briefly, untraced and traced, and
// checks that the answers verify and every metric is reported with its
// unit; end-to-end values and per-layer times are never zero. Under -race,
// select the HTTP workloads, where the benchmark's own goroutines are:
// -run 'QuickRun/(serve|restart)'.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's state, including CH's continuous engine")
	}
	p, err := newProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				cfg := config{seed: 3, seconds: 400 * time.Millisecond, trace: traced, dir: t.TempDir(), probe: p}
				o, _, err := runWorkload(w.name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
					t.Errorf("correct %v, %d of %d failed", o.Correct, o.Failed, o.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(o.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(o.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := o.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
						t.Errorf("%s = %v", d.name, m.Value)
					case m.Value == 0 && (!traced || d.unit == "ms"):
						t.Errorf("%s is zero", d.name)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
