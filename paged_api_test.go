package ifls_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ifls "github.com/indoorspatial/ifls"
)

// TestPublicPagedIndexFile exercises the paged on-disk index through the
// public API: SavePaged to a file, OpenIndexFile under a starved page cache,
// identical answers to the resident index, nonzero cache activity in the
// attached Metrics, clean Close; LoadIndex reads the same file eagerly.
func TestPublicPagedIndexFile(t *testing.T) {
	v, rooms := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	// The client sits in a non-candidate room so the solver must compute
	// real distances — a client inside a candidate short-circuits to zero
	// without ever touching a matrix page.
	q := &ifls.Query{
		Existing:   []ifls.PartitionID{rooms[0]},
		Candidates: []ifls.PartitionID{rooms[2], rooms[3]},
		Clients:    []ifls.Client{{ID: 0, Loc: ifls.Pt(15, 9, 0), Part: rooms[1]}},
	}
	want := answer(t, ix, q, ifls.QueryOptions{}).MinMax

	dir := t.TempDir()
	pagedPath := filepath.Join(dir, "office.vip")
	f, err := os.Create(pagedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SavePaged(f, ifls.PagedSaveOptions{PageSize: 64}); err != nil {
		t.Fatalf("SavePaged: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m := ifls.NewMetrics()
	paged, err := ifls.OpenIndexFile(pagedPath, v, ifls.PagedIndexOptions{CacheBytes: 128, Metrics: m})
	if err != nil {
		t.Fatalf("OpenIndexFile (paged): %v", err)
	}
	got := answer(t, paged, q, ifls.QueryOptions{}).MinMax
	if got.Found != want.Found || got.Answer != want.Answer || math.Abs(got.Objective-want.Objective) > 0 {
		t.Fatalf("paged index disagrees: %+v vs %+v", got, want)
	}
	if snap := m.Snapshot(); snap.PageCacheMisses == 0 || snap.PagesRead == 0 {
		t.Errorf("no page-cache activity recorded: %+v", snap)
	}
	if err := paged.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// LoadIndex accepts the same paged stream, fully materialized.
	data, err := os.ReadFile(pagedPath)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := ifls.LoadIndex(bytes.NewReader(data), v)
	if err != nil {
		t.Fatalf("LoadIndex (paged stream): %v", err)
	}
	if got := answer(t, mat, q, ifls.QueryOptions{}).MinMax; got.Answer != want.Answer {
		t.Fatalf("materialized paged index disagrees: %+v vs %+v", got, want)
	}
}

// TestPublicRefusesV2Index: a file whose header says version 2 (the
// retired monolithic format) is refused by both public readers with
// ErrCorruptIndex and a message naming the -saveindex rebuild.
func TestPublicRefusesV2Index(t *testing.T) {
	v, _ := buildOffice(t)
	ix, err := ifls.NewIndex(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SavePaged(&buf, ifls.PagedSaveOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[8:], 2)
	path := filepath.Join(t.TempDir(), "office-v2.vip")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func() (*ifls.Index, error){
		"LoadIndex": func() (*ifls.Index, error) { return ifls.LoadIndex(bytes.NewReader(data), v) },
		"OpenIndexFile": func() (*ifls.Index, error) {
			return ifls.OpenIndexFile(path, v, ifls.PagedIndexOptions{})
		},
	}
	for name, open := range readers {
		got, err := open()
		if got != nil {
			t.Errorf("%s returned an index for a v2 file", name)
		}
		if !errors.Is(err, ifls.ErrCorruptIndex) || !strings.Contains(err.Error(), "-saveindex") {
			t.Errorf("%s: err = %v, want ErrCorruptIndex naming -saveindex", name, err)
		}
	}
}
