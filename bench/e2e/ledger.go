package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// record is one metric of one run in a ledger file. A ledger is a JSON
// array of records; --out appends a run's metrics to it.
type record struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"GOMAXPROCS"`
	Command    string  `json:"command"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"`
	Value      float64 `json:"value"`
}

// appendLedger adds one run's metrics to the ledger at path, creating it.
// The recorded command names the settings that shape the measurement,
// not where its output went.
func appendLedger(path, workload string, cfg config, o output) error {
	recs, err := readLedger(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	command := fmt.Sprintf("e2e --workload %s --seed %d --seconds %g --trace %d", workload, cfg.seed, cfg.seconds.Seconds(), trace)
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		recs = append(recs, record{
			Commit:     commit(),
			Go:         runtime.Version(),
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Command:    command,
			Seed:       cfg.seed,
			Workload:   workload,
			Metric:     n,
			Unit:       o.Metrics[n].Unit,
			Value:      o.Metrics[n].Value,
		})
	}
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// commit is the revision the binary was built from, when the build saw
// version control.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func readLedger(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("reading ledger %s: %w", path, err)
	}
	return recs, nil
}

// benchSpec is the part of BENCHMARK.json a diff reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("reading %s: %w", path, err)
	}
	return spec, nil
}

// diffLedgers prints, for every (metric, workload) pair both ledgers hold,
// the base median, the change's median, their ratio and each side's
// run-to-run spread. An end-to-end pair is flagged WORSE when the change's
// median is worse than the base by more than the metric's bound, and
// unresolved when either side's spread exceeds the bound, unless every
// change run beats every base run. Returns 1 when a pair is WORSE.
func diffLedgers(w io.Writer, specPath, basePath, changePath string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	base, err := readLedger(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	change, err := readLedger(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	a, b := group(base), group(change)

	fmt.Fprintf(w, "base %s, change %s; spread = quartile distance / median\n", basePath, changePath)
	fmt.Fprintf(w, "%-38s %-14s %14s %14s %8s %7s %7s %5s  %s\n",
		"metric", "workload", "base", "change", "ratio", "spread", "spread", "runs", "verdict")
	worse := 0
	row := func(metric, better string, bound float64, judged bool) {
		for _, wl := range workloads {
			k := key{wl.name, metric}
			va, vb := a[k], b[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			sa, sb := spread(va), spread(vb)
			verdict := ""
			if judged {
				verdict = judge(better, bound, va, vb, ma, mb, math.Max(sa, sb))
				if verdict == "WORSE" {
					worse++
				}
				verdict = fmt.Sprintf("%s (bound %.0f%%)", verdict, 100*bound)
			}
			fmt.Fprintf(w, "%-38s %-14s %14.6g %14.6g %8.4f %6.1f%% %6.1f%% %2d/%-2d  %s\n",
				metric, wl.name, ma, mb, mb/ma, 100*sa, 100*sb, len(va), len(vb), verdict)
		}
	}
	for _, m := range spec.EndToEnd {
		row(m.Name, m.Better, m.Bound, true)
	}
	for _, m := range spec.PerLayer {
		row(m.Name, "", 0, false)
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d pairs worse than their bound\n", worse)
		return 1
	}
	return 0
}

type key struct{ workload, metric string }

func group(recs []record) map[key][]float64 {
	g := map[key][]float64{}
	for _, r := range recs {
		k := key{r.Workload, r.Metric}
		g[k] = append(g[k], r.Value)
	}
	return g
}

// judge compares the change's runs vb with the base's runs va.
func judge(better string, bound float64, va, vb []float64, ma, mb, sp float64) string {
	lower := better == "lower"
	allBetter := true
	for _, x := range va {
		for _, y := range vb {
			if (lower && y >= x) || (!lower && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better"
	case sp > bound:
		return "unresolved"
	case lower && mb > ma*(1+bound), !lower && mb < ma*(1-bound):
		return "WORSE"
	}
	return "ok"
}

// spread is the distance between the first and third quartiles as a share
// of the median; +Inf with fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return math.Inf(1)
	}
	q := quartiles(v)
	return (q[2] - q[0]) / q[1]
}

// quartiles matches Python's statistics.quantiles(v, n=4), whose default
// "exclusive" method the benchmark's acceptance check uses.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q
}

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}
