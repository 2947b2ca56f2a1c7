package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// updateCounters rewrites the exact counter pin from this run instead of
// comparing against it. Only a deliberate change to what a solver computes
// or counts may regenerate it; refactors must leave the file untouched:
//
//	go test ./internal/core -run TestExecCountersExact -update-counters
var updateCounters = flag.Bool("update-counters", false,
	"rewrite testdata/exec_counters.golden from this run")

const execCountersGolden = "testdata/exec_counters.golden"

// counterVenues are the seeded venues the pin sweeps: regular grids with and
// without inter-room doors, the multi-door fixture, and structurally random
// venues.
func counterVenues() []struct {
	name string
	v    *indoor.Venue
} {
	return []struct {
		name string
		v    *indoor.Venue
	}{
		{"grid4x2", testvenue.Default()},
		{"grid6x3-nodoors", testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 3})},
		{"multidoor", testvenue.MultiDoorRooms()},
		{"random17", testvenue.Random(17)},
		{"random42", testvenue.Random(42)},
		{"random99", testvenue.Random(99)},
	}
}

// counterShapes are the (existing, candidates, clients) sizes each venue is
// queried with; zero existing facilities disables Lemma 5.1 pruning.
var counterShapes = [][3]int{{0, 4, 25}, {2, 5, 40}, {3, 8, 60}, {5, 6, 90}, {4, 12, 200}}

// execCounterLines runs every Exec objective over the seeded sweep and
// renders one line per (query, objective): the answer(s), the objective as
// exact float bits, and the work counters.
func execCounterLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, cv := range counterVenues() {
		tree := vip.MustBuild(cv.v, vip.DefaultOptions())
		rng := rand.New(rand.NewSource(2023))
		for qi, sh := range counterShapes {
			q := randomQuery(cv.v, rng, sh[0], sh[1], sh[2])
			for obj := Objective(0); obj < numObjectives; obj++ {
				r := execOf(tree, q, Options{Objective: obj, K: 3})
				lines = append(lines, fmt.Sprintf("%s/q%d/%s\t%s", cv.name, qi, obj, renderCounters(obj, r)))
			}
		}
	}
	return lines
}

// renderCounters formats one Exec payload for the pin. Objective values are
// written as IEEE-754 bits so the comparison is exact.
func renderCounters(obj Objective, r ExecResult) string {
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	var answers []string
	var value string
	switch obj {
	case ObjTopK:
		var objs []string
		for _, rc := range r.TopK {
			answers = append(answers, fmt.Sprint(rc.Candidate))
			objs = append(objs, bits(rc.Objective))
		}
		value = strings.Join(objs, ",")
	case ObjMulti:
		for _, a := range r.Multi.Answers {
			answers = append(answers, fmt.Sprint(a))
		}
		value = bits(r.Multi.Objective)
	default:
		out := r.Outcome(obj)
		answers = append(answers, fmt.Sprint(out.Answer))
		value = fmt.Sprintf("%s found=%t", bits(out.Value), out.Found)
	}
	st := r.Outcome(obj).Stats
	return fmt.Sprintf("ans=%s obj=%s pops=%d dist=%d retr=%d pruned=%d bytes=%d",
		strings.Join(answers, ","), value, st.QueuePops, st.DistanceCalcs, st.Retrievals, st.PrunedClients, st.RetainedBytes)
}

// TestExecCountersExact pins every Exec objective's answers and work
// counters, bit for bit, on a seeded sweep. TestQueuePopsDelta (package
// bench) tolerates 10% drift on MinMax alone; this pin tolerates none and
// covers the baseline and the Section 7 solvers too, so a refactor of the
// shared traversal must leave it unchanged.
func TestExecCountersExact(t *testing.T) {
	got := execCounterLines(t)
	if *updateCounters {
		body := "# Exact Exec answers and work counters on the seeded core sweep.\n" +
			"# Regenerate only for a deliberate solver change:\n" +
			"# go test ./internal/core -run TestExecCountersExact -update-counters\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(execCountersGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(execCountersGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d lines", execCountersGolden, len(got))
		return
	}
	data, err := os.ReadFile(execCountersGolden)
	if err != nil {
		t.Fatalf("read %s (run with -update-counters to create it): %v", execCountersGolden, err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("sweep produced %d lines, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
