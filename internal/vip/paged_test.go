package vip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pager"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// savePagedBytes serializes tree in the v3 format with the given page size.
func savePagedBytes(t testing.TB, tree *Tree, pageSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.SavePaged(&buf, PagedSaveOptions{PageSize: pageSize}); err != nil {
		t.Fatalf("SavePaged: %v", err)
	}
	return buf.Bytes()
}

// requireBitIdentical sweeps every partition pair plus a point query and
// fails unless got answers bit-for-bit what want answers.
func requireBitIdentical(t *testing.T, got, want *Tree) {
	t.Helper()
	v := want.Venue()
	n := v.NumPartitions()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			g := got.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID(b))
			w := want.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID(b))
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("distance %d->%d: paged %v, resident %v (not byte-identical)", a, b, g, w)
			}
		}
	}
	p := v.RandomPointIn(0, 0.4, 0.6)
	q := v.RandomPointIn(indoor.PartitionID(n-1), 0.5, 0.5)
	g := got.DistPointToPoint(p, 0, q, indoor.PartitionID(n-1))
	w := want.DistPointToPoint(p, 0, q, indoor.PartitionID(n-1))
	if math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("point distance: paged %v, resident %v", g, w)
	}
}

// TestPagedRoundTripIdentical: Build -> SavePaged -> OpenPaged answers every
// query bit-identically to the built tree, for vivid and plain trees,
// including under a cache budget far below the matrix heap (which must show
// nonzero evictions, proving the pressure was real).
func TestPagedRoundTripIdentical(t *testing.T) {
	cases := []struct {
		name  string
		venue *indoor.Venue
		opts  Options
	}{
		{"vivid-grid", testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true}), Options{LeafFanout: 3, NodeFanout: 2, Vivid: true}},
		{"ip-corridor", testvenue.Corridor3(), Options{LeafFanout: 2, NodeFanout: 2, Vivid: false}},
		{"vivid-tworooms", testvenue.TwoRooms(), Options{LeafFanout: 1, NodeFanout: 2, Vivid: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := MustBuild(tc.venue, tc.opts)
			data := savePagedBytes(t, orig, 64)

			t.Run("roomy-cache", func(t *testing.T) {
				loaded, err := OpenPaged(bytes.NewReader(data), int64(len(data)), tc.venue, PagedOptions{CacheBytes: -1})
				if err != nil {
					t.Fatalf("OpenPaged: %v", err)
				}
				defer loaded.Close()
				if !loaded.Paged() || orig.Paged() {
					t.Fatal("Paged() misreports")
				}
				if err := loaded.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if got, want := loaded.MemoryFootprint(), orig.MemoryFootprint(); got != want {
					t.Fatalf("MemoryFootprint: paged %d, resident %d", got, want)
				}
				requireBitIdentical(t, loaded, orig)
				if st := loaded.PageCacheStats(); st.Misses == 0 || st.PagesRead == 0 {
					t.Fatalf("no page traffic recorded: %+v", st)
				}
			})

			t.Run("starved-cache", func(t *testing.T) {
				// Budget of two pages: far below any venue's matrix heap.
				loaded, err := OpenPaged(bytes.NewReader(data), int64(len(data)), tc.venue, PagedOptions{CacheBytes: 128})
				if err != nil {
					t.Fatalf("OpenPaged: %v", err)
				}
				defer loaded.Close()
				requireBitIdentical(t, loaded, orig)
				st := loaded.PageCacheStats()
				if st.CachedBytes > 128 {
					t.Fatalf("cache over budget: %+v", st)
				}
				if st.Evictions == 0 && orig.MemoryFootprint()*8 > 128 {
					t.Fatalf("starved cache never evicted: %+v", st)
				}
			})
		})
	}
}

// TestPagedSaveDeterministic: SavePaged emits identical bytes on every call,
// and a paged tree re-exports to exactly the bytes the resident original
// produces.
func TestPagedSaveDeterministic(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	d1 := savePagedBytes(t, orig, 256)
	d2 := savePagedBytes(t, orig, 256)
	if !bytes.Equal(d1, d2) {
		t.Fatal("SavePaged is not deterministic")
	}

	loaded, err := OpenPaged(bytes.NewReader(d1), int64(len(d1)), v, PagedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if d3 := savePagedBytes(t, loaded, 256); !bytes.Equal(d1, d3) {
		t.Fatal("SavePaged of a paged tree diverges from the original")
	}
}

// TestLoadReadsPagedStream: Load reads the same stream OpenPaged does and
// returns a fully resident, fully validated tree.
func TestLoadReadsPagedStream(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 4, Levels: 2, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	data := savePagedBytes(t, orig, 512)
	loaded, err := Load(bytes.NewReader(data), v)
	if err != nil {
		t.Fatalf("Load(v3 stream): %v", err)
	}
	if loaded.Paged() {
		t.Fatal("Load returned a paged tree; it must materialize")
	}
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, loaded, orig)
}

// TestOpenPagedRejects: envelope and structure damage is caught at open
// time with typed errors — the lazy page heap never weakens the eager
// checks on what is read eagerly.
func TestOpenPagedRejects(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	data := savePagedBytes(t, orig, 64)

	open := func(d []byte, venue *indoor.Venue) error {
		tr, err := OpenPaged(bytes.NewReader(d), int64(len(d)), venue, PagedOptions{})
		if tr != nil && err != nil {
			t.Fatal("OpenPaged returned a tree alongside an error")
		}
		if tr != nil {
			tr.Close()
		}
		return err
	}

	if err := open(data, testvenue.TwoRooms()); !errors.Is(err, faults.ErrInvalidOptions) {
		t.Errorf("wrong venue: err = %v, want ErrInvalidOptions", err)
	}
	corruptCases := map[string]func([]byte) []byte{
		"bad magic":       func(d []byte) []byte { d[0] = 'X'; return d },
		"structure flip":  func(d []byte) []byte { d[30] ^= 0x08; return d },
		"truncated tail":  func(d []byte) []byte { return d[:len(d)-10] },
		"truncated head":  func(d []byte) []byte { return d[:20] },
		"trailing bytes":  func(d []byte) []byte { return append(d, 0, 0, 0) },
		"absurd struct":   func(d []byte) []byte { binary.LittleEndian.PutUint64(d[12:], 1<<40); return d },
		"zero struct len": func(d []byte) []byte { binary.LittleEndian.PutUint64(d[12:], 0); return d },
	}
	for name, mutate := range corruptCases {
		if err := open(mutate(append([]byte(nil), data...)), v); !errors.Is(err, faults.ErrCorruptIndex) {
			t.Errorf("%s: err = %v, want ErrCorruptIndex", name, err)
		}
	}
}

// queryRecover runs one partition-pair query and converts a query-time
// corruption panic back into its error.
func queryRecover(tree *Tree, a, b indoor.PartitionID) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			panic(p)
		}
	}()
	tree.DistPartitionToPartition(a, b)
	return nil
}

// TestPagedCorruptPageFailsAtQueryTime: damage confined to the page heap
// does not stop OpenPaged (the structure is intact and verified), but the
// first query that faults a damaged page panics with an
// ErrCorruptIndex-classified error — the contract the serving layer's
// recover shield relies on — and Load, which verifies every page, refuses
// the same bytes.
func TestPagedCorruptPageFailsAtQueryTime(t *testing.T) {
	const pageSize = 64
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	data := savePagedBytes(t, orig, pageSize)

	secOff := 24 + int(binary.LittleEndian.Uint64(data[12:]))
	stride := pageSize + pager.PageCRCSize
	bad := append([]byte(nil), data...)
	// Flip one payload byte in every page so any matrix fault trips.
	for off := secOff; off+stride <= len(bad); off += stride {
		bad[off] ^= 0x01
	}

	loaded, err := OpenPaged(bytes.NewReader(bad), int64(len(bad)), v, PagedOptions{})
	if err != nil {
		t.Fatalf("OpenPaged refused page-level damage at open time: %v", err)
	}
	defer loaded.Close()

	qerr := queryRecover(loaded, 0, indoor.PartitionID(v.NumPartitions()-1))
	if !errors.Is(qerr, faults.ErrCorruptIndex) {
		t.Errorf("query on corrupt pages: err = %v, want ErrCorruptIndex panic", qerr)
	}

	// The same stream fed to Load (eager materialization) must be refused
	// outright.
	if _, lerr := Load(bytes.NewReader(bad), v); !errors.Is(lerr, faults.ErrCorruptIndex) {
		t.Errorf("Load of corrupt-page stream: err = %v, want ErrCorruptIndex", lerr)
	}
}

// TestOpenPagedFile exercises the file-backed open path plus Close, and
// Load of the same bytes: a good file gives a tree whose every page was
// verified.
func TestOpenPagedFile(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	data := savePagedBytes(t, orig, 4096)
	path := filepath.Join(t.TempDir(), "venue.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("pread", func(t *testing.T) {
		loaded, err := OpenPagedFile(path, v, PagedOptions{})
		if err != nil {
			t.Fatalf("OpenPagedFile: %v", err)
		}
		requireBitIdentical(t, loaded, orig)
		if err := loaded.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
	t.Run("load", func(t *testing.T) {
		eager, err := Load(bytes.NewReader(data), v)
		if err != nil || eager == nil {
			t.Fatalf("Load of a good file: tree %v, err %v", eager, err)
		}
		requireBitIdentical(t, eager, orig)
	})
}

// TestSavePagedRejectsBadPageSize: page sizes the format cannot support are
// an options error, not a corrupt file waiting to happen.
func TestSavePagedRejectsBadPageSize(t *testing.T) {
	tree := MustBuild(testvenue.TwoRooms(), DefaultOptions())
	for _, ps := range []int{-8, 7, 12, maxPageSize + 8} {
		var buf bytes.Buffer
		if err := tree.SavePaged(&buf, PagedSaveOptions{PageSize: ps}); !errors.Is(err, faults.ErrInvalidOptions) {
			t.Errorf("PageSize %d: err = %v, want ErrInvalidOptions", ps, err)
		}
	}
}

// headerOnly serves header and fails the test on any read past it: the
// proof that a reader refused a file from its header alone.
type headerOnly struct {
	t      *testing.T
	header []byte
}

func (h *headerOnly) Read(p []byte) (int, error) {
	if len(h.header) == 0 {
		h.t.Error("reader went past the header")
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, h.header)
	h.header = h.header[n:]
	return n, nil
}

func (h *headerOnly) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(len(h.header)) {
		h.t.Errorf("reader went past the header (read of %d bytes at %d)", len(p), off)
		return 0, io.ErrUnexpectedEOF
	}
	return copy(p, h.header[off:]), nil
}

// TestLoadPayloadLengthBoundary: a header declaring exactly the allocation
// cap (1<<31) must be rejected as corrupt before any payload is read or
// allocated — the bound is exclusive.
func TestLoadPayloadLengthBoundary(t *testing.T) {
	header := make([]byte, headerSize)
	copy(header, indexMagic[:])
	binary.LittleEndian.PutUint32(header[8:], pagedFormatVersion)
	binary.LittleEndian.PutUint64(header[12:], maxIndexPayload)
	_, err := Load(&headerOnly{t: t, header: header}, testvenue.TwoRooms())
	if !errors.Is(err, faults.ErrCorruptIndex) {
		t.Fatalf("boundary payload length: err = %v, want ErrCorruptIndex", err)
	}
}

// TestRefuseMonolithicV2: a file whose header says version 2 (the retired
// monolithic format) is refused by every reader from the header alone,
// with ErrCorruptIndex and the command that rebuilds it.
func TestRefuseMonolithicV2(t *testing.T) {
	data, tree := savedTree(t)
	binary.LittleEndian.PutUint32(data[8:], monolithicFormatVersion)
	v := tree.Venue()
	path := filepath.Join(t.TempDir(), "v2.vip")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	header := data[:headerSize]
	readers := map[string]func() (*Tree, error){
		"Load": func() (*Tree, error) { return Load(&headerOnly{t: t, header: header}, v) },
		"OpenPaged": func() (*Tree, error) {
			return OpenPaged(&headerOnly{t: t, header: header}, int64(len(data)), v, PagedOptions{})
		},
		"OpenPagedFile": func() (*Tree, error) { return OpenPagedFile(path, v, PagedOptions{}) },
	}
	for name, open := range readers {
		tr, err := open()
		if tr != nil {
			t.Errorf("%s returned a tree for a v2 file", name)
		}
		if !errors.Is(err, faults.ErrCorruptIndex) || !strings.Contains(err.Error(), "-saveindex") {
			t.Errorf("%s: err = %v, want ErrCorruptIndex naming -saveindex", name, err)
		}
	}
}

// TestPagedStraddlingRowsMatchResident: under 64-byte pages (8 cells) many
// matrix rows straddle a page boundary; every explorer vector a paged tree
// derives from them — every node's access-door rows and every leaf's door
// rows, from every source partition — must equal the resident tree's bit
// for bit.
func TestPagedStraddlingRowsMatchResident(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	for _, vivid := range []bool{true, false} {
		orig := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: vivid})
		data := savePagedBytes(t, orig, 64)
		paged, err := OpenPaged(bytes.NewReader(data), int64(len(data)), v, PagedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		straddles := 0
		for _, nd := range paged.nodes {
			ds := append([]matDesc{nd.fullD, nd.uD}, nd.ancD...)
			for _, d := range ds {
				for ri := 0; ri < d.rows; ri++ {
					first := d.off + int64(ri*d.cols)
					if d.cols > 0 && first/8 != (first+int64(d.cols)-1)/8 {
						straddles++
					}
				}
			}
		}
		if straddles == 0 {
			t.Fatal("no matrix row straddles a page; the test proves nothing")
		}
		same := func(what string, got, want [][]float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d rows, resident %d", what, len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s row %d: %d cells, resident %d", what, i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("%s [%d][%d]: paged %v, resident %v", what, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
		for p := 0; p < v.NumPartitions(); p++ {
			src := indoor.PartitionID(p)
			pe, re := paged.NewExplorer(src), orig.NewExplorer(src)
			for n := 0; n < orig.NumNodes(); n++ {
				id := NodeID(n)
				same("ADVec", pe.ADVec(id), re.ADVec(id))
				if orig.IsLeaf(id) {
					same("DoorVec", pe.DoorVec(id), re.DoorVec(id))
				}
			}
		}
		paged.Close()
	}
}

// TestPagedRowsMatchResident: every row of every matrix read through the
// row accessors of a tree paged at 64-byte pages equals the resident row
// bit for bit — rows inside one page and rows straddling several alike.
func TestPagedRowsMatchResident(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	data := savePagedBytes(t, orig, 64)
	paged, err := OpenPaged(bytes.NewReader(data), int64(len(data)), v, PagedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	var buf []float64
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d cells, resident %d", what, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s[%d]: paged %v, resident %v", what, j, got[j], want[j])
			}
		}
	}
	var rbuf []float64
	for id, nd := range paged.nodes {
		rd := orig.nodes[id]
		if nd.leaf {
			for ri := range nd.doors {
				same("full", paged.row(nd.fullD, ri, &buf), orig.row(rd.fullD, ri, &rbuf))
				for k := range nd.ancIDs {
					same("anc", paged.row(nd.ancD[k], ri, &buf), orig.row(rd.ancD[k], ri, &rbuf))
				}
			}
		} else {
			for ri := range nd.uDoors {
				same("union", paged.row(nd.uD, ri, &buf), orig.row(rd.uD, ri, &rbuf))
			}
		}
	}
}

// TestPagedCachedRowReadAllocs: once its pages are cached, a row read
// allocates nothing — a row inside one page is a view of the cached page,
// and a straddling row reuses the caller's scratch — and a row read on a
// resident tree, a view of its cell slab, allocates nothing either.
func TestPagedCachedRowReadAllocs(t *testing.T) {
	v := testvenue.Grid(testvenue.GridParams{Cols: 6, Levels: 2, InterRoomDoors: true})
	orig := MustBuild(v, Options{LeafFanout: 3, NodeFanout: 2, Vivid: true})
	data := savePagedBytes(t, orig, 64)
	paged, err := OpenPaged(bytes.NewReader(data), int64(len(data)), v, PagedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	var inside, straddling *node
	var insideRow, straddlingRow int
	for _, nd := range paged.nodes {
		if nd.leaf {
			continue
		}
		for ri := 0; ri < nd.uD.rows; ri++ {
			first := nd.uD.off + int64(ri*nd.uD.cols)
			last := first + int64(nd.uD.cols) - 1
			if first/8 == last/8 && inside == nil {
				inside, insideRow = nd, ri
			}
			if first/8 != last/8 && straddling == nil {
				straddling, straddlingRow = nd, ri
			}
		}
	}
	if inside == nil || straddling == nil {
		t.Fatal("venue lacks an in-page or a straddling union row")
	}
	var buf []float64
	for _, tc := range []struct {
		name string
		tree *Tree
		nd   *node
		ri   int
	}{
		{"in-page", paged, inside, insideRow},
		{"straddling", paged, straddling, straddlingRow},
		{"resident", orig, orig.nodes[straddling.id], straddlingRow},
	} {
		tc.tree.row(tc.nd.uD, tc.ri, &buf) // fault the pages, size buf
		if n := testing.AllocsPerRun(100, func() { tc.tree.row(tc.nd.uD, tc.ri, &buf) }); n != 0 {
			t.Errorf("%s cached row read: %v allocs, want 0", tc.name, n)
		}
	}
}

// pageRecorder is an io.ReaderAt that records which pages of the page
// section a reader touches. Concurrent page faults may record at once;
// read pages once they have joined.
type pageRecorder struct {
	r              io.ReaderAt
	secOff, stride int64
	mu             sync.Mutex
	pages          map[int64]bool
}

func (p *pageRecorder) ReadAt(b []byte, off int64) (int, error) {
	if off >= p.secOff {
		p.mu.Lock()
		p.pages[(off-p.secOff)/p.stride] = true
		p.mu.Unlock()
	}
	return p.r.ReadAt(b, off)
}

// TestPagedBadCellFailsOnlyItsPage: a NaN or negative cell under a
// recomputed page CRC fails exactly the partition-pair queries whose rows
// touch its page, every time they run — a failed decode is never cached —
// and no other query.
func TestPagedBadCellFailsOnlyItsPage(t *testing.T) {
	const pageSize = 64
	data, tree := savedTree(t)
	v := tree.Venue()
	secOff := int64(headerSize + structLen(data))
	cell := firstLeafCell(t, tree)
	badPage := cell * cellSize / pageSize

	// Which pages each query touches, from a fresh clean tree per query.
	n := v.NumPartitions()
	touches := make([][]bool, n)
	for a := 0; a < n; a++ {
		touches[a] = make([]bool, n)
		for b := 0; b < n; b++ {
			rec := &pageRecorder{r: bytes.NewReader(data), secOff: secOff, stride: pageSize + pager.PageCRCSize, pages: map[int64]bool{}}
			clean, err := OpenPaged(rec, int64(len(data)), v, PagedOptions{CacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			clean.DistPartitionToPartition(indoor.PartitionID(a), indoor.PartitionID(b))
			touches[a][b] = rec.pages[badPage]
			clean.Close()
		}
	}

	for name, f := range map[string]float64{"NaN": math.NaN(), "negative": -1} {
		t.Run(name, func(t *testing.T) {
			bad := withCell(t, data, cell, f)
			paged, err := OpenPaged(bytes.NewReader(bad), int64(len(bad)), v, PagedOptions{CacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer paged.Close()
			failed, passed := 0, 0
			for rep := 0; rep < 2; rep++ {
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						err := queryRecover(paged, indoor.PartitionID(a), indoor.PartitionID(b))
						switch {
						case touches[a][b] && !errors.Is(err, faults.ErrCorruptIndex):
							t.Fatalf("rep %d: query %d->%d touches the bad page: err = %v, want ErrCorruptIndex", rep, a, b, err)
						case !touches[a][b] && err != nil:
							t.Fatalf("rep %d: query %d->%d does not touch the bad page but failed: %v", rep, a, b, err)
						case err != nil:
							failed++
						default:
							passed++
						}
					}
				}
			}
			if failed == 0 || passed == 0 {
				t.Fatalf("%d failed, %d passed: the bad page must split the queries", failed, passed)
			}
		})
	}
}

// TestPagedDecodeErrorNotCached: a page whose cells fail validation is
// read again on every fault — the cache keeps no trace of the failure —
// while its healthy neighbours stay cached.
func TestPagedDecodeErrorNotCached(t *testing.T) {
	data, tree := savedTree(t)
	v := tree.Venue()
	bad := withCell(t, data, firstLeafCell(t, tree), math.NaN())
	paged, err := OpenPaged(bytes.NewReader(bad), int64(len(bad)), v, PagedOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	// The first leaf's own partitions read its door matrix.
	p := tree.nodes[0].parts[0]
	for _, nd := range tree.nodes {
		if nd.leaf && nd.fullD.cols > 1 {
			p = nd.parts[0]
			break
		}
	}
	var reads []int64
	for rep := 0; rep < 3; rep++ {
		if err := queryRecover(paged, p, p+1); !errors.Is(err, faults.ErrCorruptIndex) {
			t.Fatalf("rep %d: err = %v, want ErrCorruptIndex", rep, err)
		}
		reads = append(reads, paged.PageCacheStats().PagesRead)
	}
	if reads[1] <= reads[0] || reads[2] <= reads[1] {
		t.Fatalf("pages read after each failing query: %v; the bad page must be re-read every time", reads)
	}
	if st := paged.PageCacheStats(); int64(st.CachedPages) >= st.PagesRead {
		t.Fatalf("cache holds %d pages after %d reads: the failed page was cached", st.CachedPages, st.PagesRead)
	}
}
