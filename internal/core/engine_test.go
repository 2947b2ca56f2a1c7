package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/obs"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// eqFloat compares objectives treating NaN as equal to NaN (the canonical
// "no answer" objective).
func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func eqResult(a, b Result) bool {
	return a.Found == b.Found && a.Answer == b.Answer && eqFloat(a.Objective, b.Objective) && a.Stats == b.Stats
}

func eqExtResult(a, b ExtResult) bool {
	return a.Answer == b.Answer && eqFloat(a.Objective, b.Objective) && a.Improves == b.Improves && a.Stats == b.Stats
}

func eqTopK(a, b []RankedCandidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Candidate != b[i].Candidate || !eqFloat(a[i].Objective, b[i].Objective) {
			return false
		}
	}
	return true
}

func eqMulti(a, b MultiResult) bool {
	if !eqFloat(a.Objective, b.Objective) || a.Stats != b.Stats || len(a.Answers) != len(b.Answers) || len(a.PerStep) != len(b.PerStep) {
		return false
	}
	for i := range a.Answers {
		if a.Answers[i] != b.Answers[i] {
			return false
		}
	}
	for i := range a.PerStep {
		if !eqFloat(a.PerStep[i], b.PerStep[i]) {
			return false
		}
	}
	return true
}

// execOf is one fresh, unobserved, non-cancellable Exec (errors are
// impossible for valid input on a background context).
func execOf(tree *vip.Tree, q *Query, o Options) ExecResult {
	r, _ := Exec(context.Background(), tree, q, o)
	return r
}

// sessionOf is execOf through a Session's warm caches.
func sessionOf(s *Session, q *Query, o Options) ExecResult {
	r, _ := s.Exec(context.Background(), q, o)
	return r
}

func engineFixture(t *testing.T) (*vip.Tree, *Query) {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 2, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	rooms := v.Rooms()
	q := &Query{
		Existing:   rooms[:2],
		Candidates: rooms[2:6],
		Clients: []Client{
			clientIn(v, rooms[6], 0),
			clientIn(v, rooms[7], 1),
			clientIn(v, rooms[8], 2),
		},
	}
	return tree, q
}

// TestExecWrapperParity: the options that only change how a run is backed
// — Validate, a Recorder, a Scratch, a Session's warm caches — never change
// its payload, for every objective.
func TestExecWrapperParity(t *testing.T) {
	tree, q := engineFixture(t)
	sess := NewSession(tree)
	sc := NewScratch()
	for obj := Objective(0); obj < numObjectives; obj++ {
		o := Options{Objective: obj, K: 3}
		want := execOf(tree, q, o)
		var tr obs.Trace
		wrapped := []struct {
			name string
			got  ExecResult
		}{
			{"validate", execOf(tree, q, Options{Objective: obj, K: 3, Validate: true})},
			{"recorder", execOf(tree, q, Options{Objective: obj, K: 3, Recorder: &tr})},
			{"scratch", execOf(tree, q, Options{Objective: obj, K: 3, Scratch: sc})},
			{"session", sessionOf(sess, q, o)},
		}
		for _, w := range wrapped {
			// A Session charges its persistent explorer cache to the memory
			// metric, so only its answer (not RetainedBytes) must match.
			got := w.got
			if w.name == "session" {
				got.MinMax.Stats.RetainedBytes = want.MinMax.Stats.RetainedBytes
				got.Ext.Stats.RetainedBytes = want.Ext.Stats.RetainedBytes
				got.Multi.Stats.RetainedBytes = want.Multi.Stats.RetainedBytes
			}
			if !eqResult(got.MinMax, want.MinMax) || !eqExtResult(got.Ext, want.Ext) ||
				!eqTopK(got.TopK, want.TopK) || !eqMulti(got.Multi, want.Multi) {
				t.Fatalf("%v/%s: %+v, want %+v", obj, w.name, got, want)
			}
		}
	}
}

// TestExecEmptyUniform: impossible queries — no clients, no candidates, or a
// non-positive K where K matters — answer with each objective's canonical
// empty result and a nil error, before any solver state is built.
func TestExecEmptyUniform(t *testing.T) {
	tree, base := engineFixture(t)
	ctx := context.Background()

	impossible := []struct {
		name string
		q    *Query
		k    int
	}{
		{"no clients", &Query{Existing: base.Existing, Candidates: base.Candidates}, 3},
		{"no candidates", &Query{Existing: base.Existing, Clients: base.Clients}, 3},
		{"both empty", &Query{}, 3},
		{"zero k", base, 0},
		{"negative k", base, -2},
	}
	for _, tc := range impossible {
		kMatters := tc.q == base // the zero/negative-k rows use the possible base query
		for obj := Objective(0); obj < numObjectives; obj++ {
			if kMatters && obj != ObjTopK && obj != ObjMulti {
				continue // K is ignored by the single-answer objectives
			}
			er, err := Exec(ctx, tree, tc.q, Options{Objective: obj, K: tc.k})
			if err != nil {
				t.Fatalf("%s/%v: err %v", tc.name, obj, err)
			}
			switch obj {
			case ObjMinMax, ObjBaseline:
				if !eqResult(er.MinMax, noResult()) {
					t.Fatalf("%s/%v: %+v, want noResult", tc.name, obj, er.MinMax)
				}
			case ObjMinDist, ObjMaxSum:
				if !eqExtResult(er.Ext, noExtResult()) {
					t.Fatalf("%s/%v: %+v, want noExtResult", tc.name, obj, er.Ext)
				}
			case ObjTopK:
				if er.TopK != nil {
					t.Fatalf("%s/%v: %v, want nil ranking", tc.name, obj, er.TopK)
				}
			case ObjMulti:
				if !eqMulti(er.Multi, noMultiResult()) {
					t.Fatalf("%s/%v: %+v, want noMultiResult", tc.name, obj, er.Multi)
				}
			}
		}
	}
}

// TestExecUnknownObjective: an out-of-table objective is rejected with the
// taxonomy sentinel, not a panic or a silent MinMax run.
func TestExecUnknownObjective(t *testing.T) {
	tree, q := engineFixture(t)
	_, err := Exec(context.Background(), tree, q, Options{Objective: numObjectives + 3})
	if !errors.Is(err, faults.ErrUnknownObjective) {
		t.Fatalf("err = %v, want ErrUnknownObjective", err)
	}
}

// TestExecValidate: Options.Validate front-loads Query.Validate, rejecting a
// nil query and malformed input with ErrInvalidQuery.
func TestExecValidate(t *testing.T) {
	tree, q := engineFixture(t)
	ctx := context.Background()

	if _, err := Exec(ctx, tree, nil, Options{Validate: true}); !errors.Is(err, faults.ErrInvalidQuery) {
		t.Fatalf("nil query: err = %v, want ErrInvalidQuery", err)
	}
	bad := &Query{
		Existing:   []indoor.PartitionID{indoor.PartitionID(tree.Venue().NumPartitions() + 7)},
		Candidates: q.Candidates,
		Clients:    q.Clients,
	}
	if _, err := Exec(ctx, tree, bad, Options{Validate: true}); !errors.Is(err, faults.ErrInvalidQuery) {
		t.Fatalf("out-of-range facility: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := Exec(ctx, tree, q, Options{Validate: true}); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

// TestObjectiveString: the dispatch table's wire names, and ParseObjective
// as their inverse (the empty name is MinMax).
func TestObjectiveString(t *testing.T) {
	want := map[Objective]string{
		ObjMinMax:   "minmax",
		ObjBaseline: "baseline",
		ObjMinDist:  "mindist",
		ObjMaxSum:   "maxsum",
		ObjTopK:     "topk",
		ObjMulti:    "multi",
	}
	for obj, name := range want {
		if got := obj.String(); got != name {
			t.Fatalf("%d.String() = %q, want %q", obj, got, name)
		}
		if got, err := ParseObjective(name); err != nil || got != obj {
			t.Fatalf("ParseObjective(%q) = %v, %v; want %v", name, got, err, obj)
		}
	}
	if got, err := ParseObjective(""); err != nil || got != ObjMinMax {
		t.Fatalf("ParseObjective(\"\") = %v, %v; want minmax", got, err)
	}
	if _, err := ParseObjective("fastest"); !errors.Is(err, faults.ErrUnknownObjective) {
		t.Fatalf("ParseObjective(fastest) err = %v, want ErrUnknownObjective", err)
	}
	if got := Objective(200).String(); got != "objective(200)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}
