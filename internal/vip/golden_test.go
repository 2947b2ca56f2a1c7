package vip

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// indexGolden pins the SHA-256 of SavePaged output across commits. It was
// generated once and must never be regenerated: a refactor of how trees
// hold or write their cells has to reproduce these bytes exactly, and a
// deliberate format change needs a new format version, not a new golden.
const indexGolden = "testdata/index_sha256.golden"

// TestIndexFileGolden pins the index file bytes: MC and CPH with default
// options, and a vivid and an IP-tree grid, each at a small page size (many
// rows straddle pages) and the default one.
func TestIndexFileGolden(t *testing.T) {
	grid := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	cases := []struct {
		name  string
		venue *indoor.Venue
		opts  Options
	}{
		{"MC", venues.MelbourneCentral(), DefaultOptions()},
		{"CPH", venues.CopenhagenAirport(), DefaultOptions()},
		{"grid-vivid", grid, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true}},
		{"grid-ip", grid, Options{LeafFanout: 3, NodeFanout: 2, Vivid: false}},
	}
	var lines []string
	for _, tc := range cases {
		tree := MustBuild(tc.venue, tc.opts)
		for _, ps := range []int{64, DefaultPageSize} {
			sum := sha256.Sum256(savePagedBytes(t, tree, ps))
			lines = append(lines, fmt.Sprintf("%s page=%d %x", tc.name, ps, sum))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(indexGolden)
	if err != nil {
		t.Fatalf("reading %s: %v", indexGolden, err)
	}
	if got != string(want) {
		t.Fatalf("index file bytes changed.\ngot:\n%swant:\n%s", got, want)
	}
}
