package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/vip"
)

// setupRepeats is how many times a run builds its workload state; setup_s
// is the median, and only the last state is measured.
const setupRepeats = 3

// The reference box is a virtual machine whose cores are shared with other
// tenants, and their load makes the same operation up to ~1.8x slower for
// seconds to minutes at a time. The slowdown follows the cost of address
// translation: a loop that loads from a new 4 KiB page every 64 loads
// slows in step with the program (their ratio moved 1-3% where either
// alone moved 40-60%), while arithmetic loops, pointer chases and reads
// of written memory track it far worse. So every timing is reported in
// probe-normalized milliseconds: wall time × probeRef / the time of that
// loop, the probe, taken next to it.
const (
	// probeBytes is the probe mapping: 8192 pages, several times the reach
	// of the TLB. It is read-only and never written, so every page maps
	// the kernel's one zero page, the data stays in the L1 cache and the
	// probe times page walks, not memory.
	probeBytes  = 32 << 20
	probeLine   = 64
	probePasses = 2
	probeRef    = time.Millisecond
)

// probe is the host-speed probe. Its mapping is outside the Go heap, so it
// neither counts in heap_mib nor changes when the collector runs.
type probe struct {
	buf  []byte
	sink byte
}

func newProbe() (*probe, error) {
	buf, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the probe: %w", err)
	}
	p := &probe{buf: buf}
	p.run() // map every page
	return p, nil
}

func (p *probe) close() { _ = syscall.Munmap(p.buf) } // fails only on a mapping newProbe did not make

// run reads the probe mapping and returns how long the timed passes took.
// An untimed pass first brings the mapping's page tables back into the
// caches: right after a garbage collection the first pass ran ~1.7x slower
// than the next, for reasons of the process's state and not the host's.
func (p *probe) run() time.Duration {
	p.pass()
	start := time.Now()
	for k := 0; k < probePasses; k++ {
		p.pass()
	}
	return time.Since(start)
}

func (p *probe) pass() {
	var s byte
	for i := 0; i < len(p.buf); i += probeLine {
		s += p.buf[i]
	}
	p.sink += s
}

// meter records a sequence of timed intervals with a probe right after
// each.
type meter struct {
	p      *probe
	walls  []time.Duration
	probes []time.Duration // probes[i] follows walls[i]
}

func newMeter(p *probe) *meter { return &meter{p: p} }

// add records one interval and probes after it.
func (m *meter) add(d time.Duration) {
	m.walls = append(m.walls, d)
	m.probes = append(m.probes, m.p.run())
}

// probeWindow is how many probes on each side of an interval its
// normalization averages. The host's speed flickers within an operation,
// so a mean over a few probes estimates the speed an operation saw better
// than the nearest probe or a median does.
const probeWindow = 2

// factor is the normalization of interval i: probeRef over the mean of the
// probes around it.
func (m *meter) factor(i int) float64 {
	p := m.probes[max(i-probeWindow, 0):min(i+probeWindow+1, len(m.probes))]
	return float64(probeRef) / float64(mean(p))
}

// norm returns every interval in probe-normalized time.
func (m *meter) norm() []time.Duration {
	out := make([]time.Duration, len(m.walls))
	for i, d := range m.walls {
		out[i] = time.Duration(float64(d) * m.factor(i))
	}
	return out
}

func (m *meter) sum() time.Duration { return sum(m.norm()) }

// rate is intervals per second of probe-normalized time.
func (m *meter) rate() float64 {
	return float64(len(m.walls)) / m.sum().Seconds()
}

// result collects one workload run.
type result struct {
	setups *meter
	// warmup is the untimed operations run once on the kept state so its
	// lazily filled caches are settled; setup_s includes it.
	warmup *meter
	// builds times each setup's vip.Build of the venue's base index.
	builds *meter
	// ops are the untraced phase's operations; tracedOps the traced phase's.
	ops, tracedOps *meter

	attempted, failed int
	// checked counts answers compared against a fresh core.Exec.
	checked int
	heap    uint64

	spans spanLog
	// solves are the fresh solves made while checking answers, and
	// solveTraces their stage split, index for index.
	solves      *meter
	solveTraces []solveTrace
	// counts holds workload-specific per-layer metrics by name.
	counts map[string]float64
}

// solveTrace is one fresh core.Exec made with an obs.Trace.
type solveTrace struct {
	locate  time.Duration
	stats   core.Stats
	clients int
}

// newResult starts a run; span times are offsets from this moment.
func newResult(p *probe) *result {
	return &result{
		setups:    newMeter(p),
		warmup:    newMeter(p),
		builds:    newMeter(p),
		ops:       newMeter(p),
		tracedOps: newMeter(p),
		solves:    newMeter(p),
		spans:     spanLog{t0: time.Now()},
	}
}

// phase returns the meter of a measured phase.
func (r *result) phase(traced bool) *meter {
	if traced {
		return r.tracedOps
	}
	return r.ops
}

// count sets a workload-specific per-layer metric.
func (r *result) count(name string, v float64) {
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] = v
}

// setup builds a workload state setupRepeats times, timing each build and
// discarding all but the last.
func setup[S any](r *result, build func() (S, error), discard func(S)) (S, error) {
	var s S
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			discard(s)
			runtime.GC()
		}
		start := time.Now()
		var err error
		if s, err = build(); err != nil {
			return s, err
		}
		r.setups.add(time.Since(start))
	}
	return s, nil
}

// buildTree builds a venue's index and records the build time.
func (r *result) buildTree(v *indoor.Venue) (*vip.Tree, error) {
	start := time.Now()
	t, err := vip.Build(v, vip.DefaultOptions())
	r.builds.add(time.Since(start))
	return t, err
}

// solve runs a fresh core.Exec with an obs.Trace, the reference every
// answer is checked against, records its duration and locate/traversal
// split, and returns its answer and its probe-normalized duration.
func (r *result) solve(t *vip.Tree, q *core.Query) (core.Result, time.Duration, error) {
	var tr obs.Trace
	start := time.Now()
	res, err := core.Exec(context.Background(), t, q, core.Options{Recorder: &tr})
	total := time.Since(start)
	if err != nil {
		return core.Result{}, 0, err
	}
	r.solves.add(total)
	st := solveTrace{stats: res.MinMax.Stats, clients: len(q.Clients)}
	for _, sp := range tr.Spans() {
		if sp.Stage == obs.StageLocate {
			st.locate = sp.Elapsed
			break
		}
	}
	r.solveTraces = append(r.solveTraces, st)
	i := len(r.solves.walls) - 1
	return res.MinMax, time.Duration(float64(total) * r.solves.factor(i)), nil
}

// heapAfterGC returns the live heap once garbage, including pooled
// scratch memory (sync.Pool keeps it for one extra cycle), is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// sameResult is exact answer equality, with NaN objectives equal.
func sameResult(a, b core.Result) bool {
	if a.Found != b.Found || a.Answer != b.Answer {
		return false
	}
	if math.IsNaN(a.Objective) && math.IsNaN(b.Objective) {
		return true
	}
	return a.Objective == b.Objective
}

func (r *result) endToEnd() map[string]float64 {
	ops := r.ops.norm()
	return map[string]float64{
		"setup_s":   (median(r.setups.norm()) + r.warmup.sum()).Seconds(),
		"op_p50_ms": ms(percentile(ops, 0.50)),
		"op_p90_ms": ms(percentile(ops, 0.90)),
		"ops_per_s": r.ops.rate(),
		"heap_mib":  float64(r.heap) / (1 << 20),
	}
}

func (r *result) perLayer() map[string]float64 {
	m := map[string]float64{
		"vip.build_ms":     ms(median(r.builds.norm())),
		"trace.op_mean_ms": ms(mean(r.tracedOps.norm())),
	}
	var locate, traverse []time.Duration
	var pops, calcs, pruned, clients float64
	for i, s := range r.solveTraces {
		f := r.solves.factor(i)
		locate = append(locate, time.Duration(float64(s.locate)*f))
		traverse = append(traverse, time.Duration(float64(r.solves.walls[i]-s.locate)*f))
		pops += float64(s.stats.QueuePops)
		calcs += float64(s.stats.DistanceCalcs)
		pruned += float64(s.stats.PrunedClients)
		clients += float64(s.clients)
	}
	m["core.locate_ms"] = ms(percentile(locate, 0.5))
	m["core.traverse_ms"] = ms(percentile(traverse, 0.5))
	if n := float64(len(r.solveTraces)); n > 0 {
		m["core.queue_pops_per_query"] = pops / n
		m["core.distance_calcs_per_query"] = calcs / n
		m["core.pruned_ratio"] = pruned / clients
	}
	for l, v := range r.spans.shares() {
		m[l+".self_pct"] = v
	}
	for k, v := range r.counts {
		m[k] = v
	}
	return m
}

// report prints a run's human-readable summary.
func report(w io.Writer, name string, cfg config, r *result) {
	fmt.Fprintf(w, "== %s  seed %d  %v per run  trace %v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "setup      %d builds, median %.3f s (vip.Build %.1f ms), warm-up %.3f s; wall %.3f s, %.3f s\n",
		len(r.setups.walls), median(r.setups.norm()).Seconds(), ms(median(r.builds.norm())), r.warmup.sum().Seconds(),
		median(r.setups.walls).Seconds(), sum(r.warmup.walls).Seconds())
	line := func(label string, ops []time.Duration) {
		fmt.Fprintf(w, "%-16s n=%d  p50 %.3f ms  p90 %.3f ms  mean %.3f ms  %.2f ops/s\n", label, len(ops),
			ms(percentile(ops, 0.5)), ms(percentile(ops, 0.9)), ms(mean(ops)), float64(len(ops))/sum(ops).Seconds())
	}
	line("untraced", r.ops.norm())
	line("untraced (wall)", r.ops.walls)
	fmt.Fprintf(w, "probe      median %.3f ms, p10 %.3f, p90 %.3f over %d reads\n", ms(median(r.ops.probes)),
		ms(percentile(r.ops.probes, 0.1)), ms(percentile(r.ops.probes, 0.9)), len(r.ops.probes))
	fmt.Fprintf(w, "heap       %.2f MiB after GC\n", float64(r.heap)/(1<<20))
	fmt.Fprintf(w, "checks     %d answers compared with core.Exec; %d of %d operations failed\n",
		r.checked, r.failed, r.attempted)
	if !cfg.trace {
		return
	}
	line("traced", r.tracedOps.norm())
	over := func(label string, a, b float64) {
		fmt.Fprintf(w, "  %-10s untraced %.3f  traced %.3f  (%+.1f%%)\n", label, a, b, 100*(b/a-1))
	}
	fmt.Fprintln(w, "tracing overhead (traced minus untraced):")
	ops, traced := r.ops.norm(), r.tracedOps.norm()
	over("op_p50_ms", ms(percentile(ops, 0.5)), ms(percentile(traced, 0.5)))
	over("op_p90_ms", ms(percentile(ops, 0.9)), ms(percentile(traced, 0.9)))
	over("ops_per_s", r.ops.rate(), r.tracedOps.rate())
	r.spans.report(w)
	pl := r.perLayer()
	fmt.Fprintln(w, "per-layer metrics:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-40s %12.4f %s\n", d.name, pl[d.name], d.unit)
	}
}

// span is one traced interval: an operation's root span (Parent -1) or a
// layer call made for it. Spans the benchmark derives from a measurement
// taken elsewhere — the server-reported solve time, a twin simulation
// step, an era rebuild repeated after its tick — carry their measured
// duration but not their true position inside the parent.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced phase's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time // the run's start
	spans []span
}

// add records a span and returns its ID for children to name as parent.
func (l *spanLog) add(op, parent int, name string, start, end time.Time) int {
	l.spans = append(l.spans, span{
		Op: op, ID: len(l.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
	return len(l.spans) - 1
}

// selfTimes returns each span name's total self time — its duration minus
// its children's — and the total time of the root spans.
func (l *spanLog) selfTimes() (map[string]time.Duration, time.Duration) {
	self := map[string]time.Duration{}
	var roots time.Duration
	for _, s := range l.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent < 0 {
			roots += d
		} else {
			self[l.spans[s.Parent].Name] -= d
		}
	}
	return self, roots
}

// shares returns each layer's self time as a percentage of the traced
// operations' time; a span's layer is its name up to the first dot.
func (l *spanLog) shares() map[string]float64 {
	self, roots := l.selfTimes()
	out := map[string]float64{}
	if roots <= 0 {
		return out
	}
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += 100 * float64(d) / float64(roots)
	}
	return out
}

// report prints the self time of every span name and the coverage of the
// named layer calls against the root spans' own residual.
func (l *spanLog) report(w io.Writer) {
	self, roots := l.selfTimes()
	ops := 0
	rootNames := map[string]bool{}
	for _, s := range l.spans {
		if s.Parent < 0 {
			ops++
			rootNames[s.Name] = true
		}
	}
	if ops == 0 {
		return
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time over %d traced operations (%.1f ms total):\n", ops, ms(roots))
	var residual time.Duration
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %10.3f ms/op  %6.2f%%\n", n, ms(self[n])/float64(ops), 100*float64(self[n])/float64(roots))
		if rootNames[n] {
			residual += self[n]
		}
	}
	fmt.Fprintf(w, "coverage: named layer calls %.2f%%, residual of the operation spans %.2f%%\n",
		100*float64(roots-residual)/float64(roots), 100*float64(residual)/float64(roots))
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	f := make([]float64, len(ds))
	for i, d := range ds {
		f[i] = float64(d)
	}
	return time.Duration(quantile(f, p))
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}
