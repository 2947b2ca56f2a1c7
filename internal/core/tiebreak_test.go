package core

import (
	"testing"

	"github.com/indoorspatial/ifls/internal/d2d"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// TestLowestIDTieBreak pins the shared tie-break rule: when several
// candidates achieve exactly the same objective value, every answer path —
// efficient, baseline, brute, and the Section 7 variants — returns the one
// with the lowest partition ID, regardless of the order candidates appear in
// the query.
//
// The venue is a 3-column grid with a client at the exact corridor center of
// level 0 and the only existing facility on level 1 (far away through the
// stair). The south rooms S0 and S2 are mirror images about the client, so
// their objectives are bit-identical, and S0 has the lower ID.
func TestLowestIDTieBreak(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 3, Levels: 2})
	tree := vip.MustBuild(v, vip.DefaultOptions())
	g := d2d.New(v)

	var s0, s2, far indoor.PartitionID = -1, -1, -1
	for _, p := range v.Partitions {
		switch p.Name {
		case "S0-L0":
			s0 = p.ID
		case "S2-L0":
			s2 = p.ID
		case "N1-L1":
			far = p.ID
		}
	}
	if s0 < 0 || s2 < 0 || far < 0 {
		t.Fatal("grid naming changed; tie venue rooms not found")
	}
	if s0 >= s2 {
		t.Fatalf("expected s0 (%d) < s2 (%d)", s0, s2)
	}
	corr := v.Partitions[0].ID // corridor of level 0 is the first partition
	center := v.Partitions[corr].Rect.Min
	center.X = (v.Partitions[corr].Rect.Min.X + v.Partitions[corr].Rect.Max.X) / 2
	center.Y = (v.Partitions[corr].Rect.Min.Y + v.Partitions[corr].Rect.Max.Y) / 2
	client := Client{ID: 0, Loc: center, Part: corr}

	orders := map[string][]indoor.PartitionID{
		"low-id first":  {s0, s2},
		"high-id first": {s2, s0},
	}
	for name, cands := range orders {
		t.Run(name, func(t *testing.T) {
			q := &Query{
				Existing:   []indoor.PartitionID{far},
				Candidates: cands,
				Clients:    []Client{client},
			}

			want := SolveBrute(g, q)
			if !want.Found || want.Answer != s0 {
				t.Fatalf("brute: Found=%v Answer=%d, want tie resolved to %d", want.Found, want.Answer, s0)
			}
			if eff := execOf(tree, q, Options{}).MinMax; eff.Answer != s0 {
				t.Errorf("efficient: Answer=%d, want %d", eff.Answer, s0)
			}
			if bl := execOf(tree, q, Options{Objective: ObjBaseline}).MinMax; bl.Answer != s0 {
				t.Errorf("baseline: Answer=%d, want %d", bl.Answer, s0)
			}

			if md := execOf(tree, q, Options{Objective: ObjMinDist}).Ext; md.Answer != s0 {
				t.Errorf("mindist: Answer=%d, want %d", md.Answer, s0)
			}
			if bmd := SolveBruteMinDist(g, q); bmd.Answer != s0 {
				t.Errorf("brute mindist: Answer=%d, want %d", bmd.Answer, s0)
			}
			if ms := execOf(tree, q, Options{Objective: ObjMaxSum}).Ext; ms.Answer != s0 {
				t.Errorf("maxsum: Answer=%d, want %d", ms.Answer, s0)
			}
			if bms := SolveBruteMaxSum(g, q); bms.Answer != s0 {
				t.Errorf("brute maxsum: Answer=%d, want %d", bms.Answer, s0)
			}

			// Top-k: the tied pair must come out sorted by ID, and the k=1
			// prefix must match the full ranking's head.
			full := execOf(tree, q, Options{Objective: ObjTopK, K: len(cands)}).TopK
			if len(full) != 2 || full[0].Candidate != s0 || full[1].Candidate != s2 {
				t.Fatalf("topk full ranking = %+v, want [%d %d]", full, s0, s2)
			}
			if full[0].Objective != full[1].Objective {
				t.Fatalf("expected an exact tie, got objectives %v and %v", full[0].Objective, full[1].Objective)
			}
			if head := execOf(tree, q, Options{Objective: ObjTopK, K: 1}).TopK; len(head) != 1 || head[0] != full[0] {
				t.Errorf("topk k=1 = %+v, want prefix of full ranking %+v", head, full[:1])
			}

			// Greedy multi resolves each round's tie the same way: the first
			// pick is s0, and the second round picks s2 (only remaining).
			if mu := execOf(tree, q, Options{Objective: ObjMulti, K: 2}).Multi; len(mu.Answers) == 0 || mu.Answers[0] != s0 {
				t.Errorf("multi: Answers=%v, want first pick %d", mu.Answers, s0)
			}
		})
	}
}
