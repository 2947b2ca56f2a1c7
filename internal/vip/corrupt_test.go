package vip

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pager"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// savedTree returns a valid serialized index and its tree. The small page
// size spreads the matrix heap over many pages.
func savedTree(t testing.TB) ([]byte, *Tree) {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1, InterRoomDoors: true})
	tree := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	return savePagedBytes(t, tree, 64), tree
}

// loadErr runs Load on data and fails the test if a tree comes back
// alongside an error.
func loadErr(t *testing.T, data []byte, v *indoor.Venue, what string) error {
	t.Helper()
	loaded, err := Load(bytes.NewReader(data), v)
	if loaded != nil && err != nil {
		t.Fatalf("%s: Load returned a partial tree alongside err=%v", what, err)
	}
	return err
}

// wantCorrupt asserts Load rejects data with ErrCorruptIndex, and — when
// msg is non-empty — that the message names the check that fired.
func wantCorrupt(t *testing.T, data []byte, tree *Tree, what, msg string) {
	t.Helper()
	err := loadErr(t, data, tree.Venue(), what)
	if !errors.Is(err, faults.ErrCorruptIndex) {
		t.Errorf("%s: err = %v, want ErrCorruptIndex", what, err)
	} else if !strings.Contains(err.Error(), msg) {
		t.Errorf("%s: err = %v, want it to mention %q", what, err, msg)
	}
}

// TestLoadRejectsHeaderTampering: each header field is verified — magic,
// version, declared length, and checksum.
func TestLoadRejectsHeaderTampering(t *testing.T) {
	data, tree := savedTree(t)

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	wantCorrupt(t, bad, tree, "bad magic", "bad magic")

	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[8:], 99)
	wantCorrupt(t, bad, tree, "future format version", "unsupported index format version 99")

	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[12:], 1<<40)
	wantCorrupt(t, bad, tree, "absurd declared length", "implausible")

	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[12:], 0)
	wantCorrupt(t, bad, tree, "zero declared length", "implausible")

	bad = append([]byte(nil), data...)
	bad[20] ^= 0xff
	wantCorrupt(t, bad, tree, "tampered checksum", "structure checksum mismatch")
}

// TestLoadRejectsTruncation: cutting the stream anywhere — inside the
// header, the structure, or the page section — is a typed corruption
// error, not a panic or a partial tree.
func TestLoadRejectsTruncation(t *testing.T) {
	data, tree := savedTree(t)
	for _, n := range []int{0, 7, 23, 24, len(data) / 2, len(data) - 1} {
		wantCorrupt(t, data[:n], tree, "truncated", "")
	}
}

// TestLoadRejectsBitFlip: any single flipped bit fails a CRC — the
// structure checksum or a page's.
func TestLoadRejectsBitFlip(t *testing.T) {
	data, tree := savedTree(t)
	for _, off := range []int{24, 24 + (len(data)-24)/2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		wantCorrupt(t, bad, tree, "bit flip", "checksum")
	}
}

// structLen returns the structure payload length a valid index declares.
func structLen(data []byte) int { return int(binary.LittleEndian.Uint64(data[12:])) }

// reseal re-encodes a tampered structure under a fresh, valid envelope and
// appends pages (the page section, unchanged), so the corruption reaches
// the deep-validation layer instead of the CRC.
func reseal(t *testing.T, in treeGob, pages []byte) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, headerSize, headerSize+payload.Len()+len(pages))
	copy(out, indexMagic[:])
	binary.LittleEndian.PutUint32(out[8:], pagedFormatVersion)
	binary.LittleEndian.PutUint64(out[12:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(out[20:], crc32.Checksum(payload.Bytes(), castagnoli))
	out = append(out, payload.Bytes()...)
	return append(out, pages...)
}

// decodePayload re-decodes a valid index file's structure into its
// mutable gob form.
func decodePayload(t *testing.T, data []byte) treeGob {
	t.Helper()
	var in treeGob
	if err := gob.NewDecoder(bytes.NewReader(data[headerSize : headerSize+structLen(data)])).Decode(&in); err != nil {
		t.Fatal(err)
	}
	return in
}

// withCell returns a copy of a valid index file with heap cell i set to f
// and the covering page's CRC recomputed, so the value — not a checksum —
// is what a reader sees.
func withCell(t *testing.T, data []byte, i int64, f float64) []byte {
	t.Helper()
	ps := decodePayload(t, data).PageSize
	pos := i * cellSize
	page, off := int(pos/int64(ps)), int(pos%int64(ps))
	start := headerSize + structLen(data) + page*(ps+pager.PageCRCSize)
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[start+off:], math.Float64bits(f))
	binary.LittleEndian.PutUint32(out[start+ps:], pager.Checksum(out[start:start+ps]))
	return out
}

// firstLeafCell returns the heap index of cell [0][1] of the first leaf's
// door×door matrix — a real distance every same-leaf query reads.
func firstLeafCell(t *testing.T, tree *Tree) int64 {
	t.Helper()
	for _, nd := range tree.nodes {
		if nd.leaf && nd.fullD.cols > 1 {
			return nd.fullD.off + 1
		}
	}
	t.Fatal("no leaf with two doors")
	return 0
}

// pagedQueryErr opens data lazily and runs every partition-pair distance
// query, returning the first query-time failure.
func pagedQueryErr(t *testing.T, data []byte, v *indoor.Venue) error {
	t.Helper()
	paged, err := OpenPaged(bytes.NewReader(data), int64(len(data)), v, PagedOptions{})
	if err != nil {
		t.Fatalf("OpenPaged: %v", err)
	}
	defer paged.Close()
	n := v.NumPartitions()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if err := queryRecover(paged, indoor.PartitionID(a), indoor.PartitionID(b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestLoadDeepValidation: structurally corrupt payloads that pass the
// checksum (resealed after tampering, page section unchanged) are rejected
// by deep validation with ErrCorruptIndex — never an index-out-of-range
// panic — and bad cell values that pass their page's CRC are rejected by
// both Load and a paged query.
func TestLoadDeepValidation(t *testing.T) {
	data, tree := savedTree(t)
	pages := data[headerSize+structLen(data):]
	cases := map[string]struct {
		mutate func(*treeGob)
		msg    string // substring naming the check that must fire
	}{
		"root out of range":      {func(g *treeGob) { g.Root = NodeID(len(g.Nodes)) }, "root"},
		"leafOf out of range":    {func(g *treeGob) { g.LeafOf[0] = -2 }, "leafOf[0]"},
		"leafOf wrong length":    {func(g *treeGob) { g.LeafOf = g.LeafOf[:1] }, "leafOf has"},
		"depth wrong length":     {func(g *treeGob) { g.Depth = append(g.Depth, 0) }, "depth has"},
		"child out of range":     {func(g *treeGob) { firstInternal(g).Children[0] = 1 << 20 }, "child"},
		"partition out of range": {func(g *treeGob) { firstLeaf(g).Parts[0] = 9999 }, "partition 9999"},
		"door out of range":      {func(g *treeGob) { firstLeaf(g).Doors[0] = -1 }, "leaf door -1"},
		// A matrix's rows are its leaf's doors and its columns an
		// ancestor's access doors; dropping either changes the layout the
		// reader derives, which the recorded cell count catches.
		"matrix row count": {func(g *treeGob) {
			l := firstLeaf(g)
			l.Doors = l.Doors[:len(l.Doors)-1]
		}, "matrix layout yields"},
		"matrix column count": {func(g *treeGob) {
			for _, a := range firstLeaf(g).AncIDs {
				if acc := g.Nodes[a].Access; len(acc) > 0 {
					g.Nodes[a].Access = acc[:len(acc)-1]
					return
				}
			}
			panic("first leaf has no ancestor with access doors")
		}, "matrix layout yields"},
		"matrix cell count": {func(g *treeGob) { g.MatrixCells++ }, "matrix layout yields"},
		// Same door counts, so the same layout, but an access door the
		// node's union matrix has no row for.
		"access door outside union": {func(g *treeGob) {
			for i := range g.Nodes {
				nd := &g.Nodes[i]
				if nd.Leaf || len(nd.Access) == 0 {
					continue
				}
				in := map[indoor.DoorID]bool{}
				for _, d := range nd.UDoors {
					in[d] = true
				}
				for d := indoor.DoorID(0); int(d) < g.Doors; d++ {
					if !in[d] {
						nd.Access[0] = d
						return
					}
				}
			}
			panic("no internal node with access doors")
		}, "is not in the union matrix"},
		"ancestor matrix mismatch": {func(g *treeGob) { firstLeaf(g).AncIDs = firstLeaf(g).AncIDs[:0] }, "ancestor id"},
		"ancestor chain diverges":  {func(g *treeGob) { l := firstLeaf(g); l.AncIDs[0] = l.ID }, "diverges from the parent chain"},
		"page size":                {func(g *treeGob) { g.PageSize = 12 }, "page size 12"},
		"no nodes":                 {func(g *treeGob) { g.Nodes = nil }, "no nodes"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			in := decodePayload(t, data)
			tc.mutate(&in)
			wantCorrupt(t, reseal(t, in, pages), tree, name, tc.msg)
		})
	}

	cell := firstLeafCell(t, tree)
	cellCases := map[string]float64{
		"negative distance": -3,
		"NaN distance":      math.NaN(),
	}
	for name, f := range cellCases {
		t.Run(name, func(t *testing.T) {
			bad := withCell(t, data, cell, f)
			wantCorrupt(t, bad, tree, name, "paged matrix cell")
			if err := pagedQueryErr(t, bad, tree.Venue()); !errors.Is(err, faults.ErrCorruptIndex) {
				t.Errorf("paged query: err = %v, want ErrCorruptIndex", err)
			}
		})
	}
}

func firstLeaf(g *treeGob) *nodeGob {
	for i := range g.Nodes {
		if g.Nodes[i].Leaf {
			return &g.Nodes[i]
		}
	}
	panic("no leaf")
}

func firstInternal(g *treeGob) *nodeGob {
	for i := range g.Nodes {
		if !g.Nodes[i].Leaf {
			return &g.Nodes[i]
		}
	}
	panic("no internal node")
}

// TestLoadInfiniteDistanceAllowed: +Inf encodes unreachable door pairs in
// venues with disconnected components and must survive validation, eager
// and paged alike.
func TestLoadInfiniteDistanceAllowed(t *testing.T) {
	data, tree := savedTree(t)
	inf := withCell(t, data, firstLeafCell(t, tree), math.Inf(1))
	if err := loadErr(t, inf, tree.Venue(), "+Inf"); err != nil {
		t.Fatalf("Load rejected +Inf distance: %v", err)
	}
	if err := pagedQueryErr(t, inf, tree.Venue()); err != nil {
		t.Fatalf("paged query rejected +Inf distance: %v", err)
	}
}

// TestLoadWrongVenueTyped: a healthy index loaded against the wrong venue
// is a pairing error (ErrInvalidOptions), not corruption.
func TestLoadWrongVenueTyped(t *testing.T) {
	data, _ := savedTree(t)
	_, err := Load(bytes.NewReader(data), testvenue.TwoRooms())
	if !errors.Is(err, faults.ErrInvalidOptions) {
		t.Errorf("err = %v, want ErrInvalidOptions", err)
	}
	if errors.Is(err, faults.ErrCorruptIndex) {
		t.Errorf("venue mismatch misclassified as corruption: %v", err)
	}
}
