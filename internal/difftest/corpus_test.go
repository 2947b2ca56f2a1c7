package difftest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite testdata/corpus entries from the regression case definitions")

// regressionCase pairs a minimized bug reproducer with its corpus file. The
// venue and query are built in Go (the authoritative definition); the corpus
// file is its Encode output, kept in sync by TestCorpusReplay -update-corpus.
type regressionCase struct {
	file string // name under testdata/corpus
	c    Case
}

// regressionCases returns every minimized venue the harness has surfaced a
// real bug on, as ready-to-run cases. Each entry documents the bug it pins.
func regressionCases() []regressionCase {
	var cases []regressionCase

	// Sweep seed 28, shrunk: a client standing exactly at the door shared
	// between its corridor and a candidate room. The efficient solver's
	// stepping loop only reported progress when d_low strictly advanced, so
	// the candidate's zero-distance coverage activated in the same dequeue
	// round that flipped isFirst was never answer-checked; the client was
	// later pruned against the existing room at 3.6055 and MinMax returned
	// Found=false while baseline and brute returned the candidate at
	// objective 0. Fixed in eaState.run (first-transition answer check);
	// regression test: core.TestClientAtCandidateDoorZeroDistance.
	{
		b := indoor.NewBuilder("diff-28-shrunk")
		p0 := b.AddCorridor(geom.R(0, 10, 12, 14, 0), "corr-L0")
		p1 := b.AddRoom(geom.R(0.5, 14, 8, 20, 0), "N1-L0", "")
		p2 := b.AddRoom(geom.R(8, 14, 12, 20, 0), "N2-L0", "")
		b.AddDoor(geom.Pt(10, 14, 0), p2, p0)
		b.AddDoor(geom.Pt(8, 17, 0), p1, p2)
		cases = append(cases, regressionCase{
			file: "door-zero-distance-candidate.bin",
			c: Case{
				Venue: b.MustBuild(),
				Query: &core.Query{
					Existing:   []indoor.PartitionID{p1},
					Candidates: []indoor.PartitionID{p2},
					Clients:    []core.Client{{ID: 3, Part: p0, Loc: geom.Pt(10, 14, 0)}},
				},
				Obj: core.ObjMulti,
				K:   2,
			},
		})
	}

	return cases
}

// TestCorpusReplay replays every checked-in corpus entry through the full
// differential check (all objectives, not just the recorded one — a minimized
// venue that broke one solver is a good stress case for the others) and keeps
// the binary files in sync with the Go definitions above.
func TestCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	seen := map[string]bool{}
	for _, rc := range regressionCases() {
		path := filepath.Join(dir, rc.file)
		seen[rc.file] = true
		enc := Encode(rc.c)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, enc, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-corpus to regenerate)", rc.file, err)
		}
		if !bytes.Equal(data, enc) {
			t.Fatalf("%s: corpus file out of sync with its Go definition (run with -update-corpus)", rc.file)
		}
		c, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", rc.file, err)
		}
		for obj := core.Objective(0); obj < 6; obj++ {
			c.Obj = obj
			if m := CheckCase(c); m != nil {
				t.Errorf("%s: %v", rc.file, m)
			}
		}
	}
	// Every file in the corpus directory must have a Go definition; orphans
	// rot silently otherwise.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !seen[e.Name()] {
			t.Errorf("testdata/corpus/%s has no regressionCases entry", e.Name())
		}
	}
}

// TestCorpusRoundTrip checks Encode/Decode are inverse on generated cases and
// that Decode rejects malformed input instead of clamping it.
func TestCorpusRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		c := GenCase(seed)
		d, err := Decode(Encode(c))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d.Obj != c.Obj || d.K != c.K {
			t.Fatalf("seed %d: obj/k mismatch: %v/%d vs %v/%d", seed, d.Obj, d.K, c.Obj, c.K)
		}
		if len(d.Venue.Partitions) != len(c.Venue.Partitions) || len(d.Venue.Doors) != len(c.Venue.Doors) {
			t.Fatalf("seed %d: venue shape mismatch", seed)
		}
		for i := range c.Venue.Partitions {
			a, b := &c.Venue.Partitions[i], &d.Venue.Partitions[i]
			if a.Kind != b.Kind || a.Rect != b.Rect || a.StairLength != b.StairLength {
				t.Fatalf("seed %d: partition %d mismatch", seed, i)
			}
		}
		if len(d.Query.Clients) != len(c.Query.Clients) ||
			len(d.Query.Existing) != len(c.Query.Existing) ||
			len(d.Query.Candidates) != len(c.Query.Candidates) {
			t.Fatalf("seed %d: query shape mismatch", seed)
		}
		for i, cl := range c.Query.Clients {
			if d.Query.Clients[i] != cl {
				t.Fatalf("seed %d: client %d mismatch", seed, i)
			}
		}
	}

	enc := Encode(GenCase(1))
	if _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Error("truncated input: want error")
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte: want error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic: want error")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input: want error")
	}
}
