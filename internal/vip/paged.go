package vip

// The page heap of an index file (the format is described in
// serialize.go). For large venues the matrices dominate an index by orders
// of magnitude, so restart latency would be dominated by bytes the first
// query never touches if they had to be read up front. The matrix cells
// therefore live in fixed-size, individually-checksummed pages that fault
// in lazily through an LRU cache (internal/pager).
//
// The page heap is a flat array of float64 cells in little-endian byte
// order. No per-matrix offsets are stored: the layout is a deterministic
// walk of the structure (node-ID order; leaves contribute their full
// matrix then one ancestor matrix per AncIDs entry, internal nodes their
// union matrix), and every matrix dimension is implied by the door lists,
// so writer and reader derive identical cell offsets from the structure
// alone. PageSize must be a positive multiple of 8 so no cell ever
// straddles a page boundary.
//
// OpenPaged validates the structure exactly as hard as Load does and
// returns a queryable tree in O(structure) time; matrix pages are read,
// CRC-verified, and decoded only when a query first touches them. A page
// that fails verification at fault time panics with an error wrapping
// faults.ErrCorruptIndex — the serving layer's recover shield converts
// that into a per-request corrupt-index failure instead of poisoning the
// process.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/pager"
)

// DefaultPageSize is the page payload size SavePaged uses when the caller
// does not choose one: 64 KiB amortizes the 4-byte trailer and the per-page
// CRC pass while keeping single-matrix faults from dragging in megabytes.
const DefaultPageSize = 64 << 10

// DefaultPageCacheBytes is the page-cache budget OpenPaged uses when the
// caller passes zero: 64 MiB holds the full working set of every benchmark
// venue while staying far below a fully resident index for large ones.
const DefaultPageCacheBytes = 64 << 20

// maxPageSize bounds the page size accepted from a file header; anything
// larger is corrupt (or adversarial), not a tuning choice.
const maxPageSize = 1 << 27

// cellSize is the on-disk size of one distance cell (a float64).
const cellSize = 8

// matDesc locates one matrix in the page heap: its first cell index and
// its dimensions. Descriptors are derived, never stored.
type matDesc struct {
	off        int64
	rows, cols int
}

// cells returns the matrix's cell count.
func (d matDesc) cells() int64 { return int64(d.rows) * int64(d.cols) }

// layoutMatrices assigns every node's matrix descriptors by the
// deterministic layout walk — node-ID order; leaf: full matrix then
// ancestor matrices in ancIDs order; internal: union matrix — and returns
// the total cell count. It is the only code that knows the layout, and it
// needs only the tree structure (door lists and ancIDs), not the cells.
func (t *Tree) layoutMatrices() int64 {
	var off int64
	place := func(rows, cols int) matDesc {
		d := matDesc{off: off, rows: rows, cols: cols}
		off += d.cells()
		return d
	}
	for _, nd := range t.nodes {
		if !nd.leaf {
			nd.uD = place(len(nd.uDoors), len(nd.uDoors))
			continue
		}
		nd.fullD = place(len(nd.doors), len(nd.doors))
		nd.ancD = make([]matDesc, len(nd.ancIDs))
		for k, a := range nd.ancIDs {
			nd.ancD[k] = place(len(nd.doors), len(t.nodes[a].access))
		}
	}
	return off
}

// pageStore is a paged tree's connection to its on-disk matrix cells: an
// LRU cache of decoded pages over the page section. Each page is read,
// CRC-checked, and decoded into validated cells once per fault; row reads
// are then views into the cached cells.
type pageStore struct {
	cache        *pager.Cache[[]float64]
	cellsPerPage int64
	cells        int64 // the heap's cell count
}

// decodePageCells decodes little-endian cells from payload into dst, which
// holds heap cells [first, first+len(dst)), validating every one: finite
// and non-negative, or +Inf, never NaN.
func decodePageCells(dst []float64, payload []byte, first int64) error {
	for i := range dst {
		f := math.Float64frombits(binary.LittleEndian.Uint64(payload[i*cellSize:]))
		if math.IsNaN(f) || f < 0 {
			return fmt.Errorf("paged matrix cell %d = %v (distances are non-negative, non-NaN)", first+int64(i), f)
		}
		dst[i] = f
	}
	return nil
}

// pageCells returns the heap cell range [lo, hi) page pg holds, for a heap
// of cells cells: the final page's zero padding is not part of the heap
// and is neither decoded nor validated.
func pageCells(pg int, cellsPerPage, cells int64) (lo, hi int64) {
	lo = int64(pg) * cellsPerPage
	return lo, min(lo+cellsPerPage, cells)
}

// newPageStore wraps src in an LRU cache of decoded pages per the options;
// cells is the heap's cell count.
func newPageStore(src *pager.FilePager, cells int64, o PagedOptions) *pageStore {
	budget := o.CacheBytes
	if budget == 0 {
		budget = DefaultPageCacheBytes
	} else if budget < 0 {
		budget = math.MaxInt64
	}
	per := int64(src.Params().PageSize / cellSize)
	decode := func(pg int, payload []byte) ([]float64, error) {
		lo, hi := pageCells(pg, per, cells)
		out := make([]float64, hi-lo)
		if err := decodePageCells(out, payload, lo); err != nil {
			return nil, err
		}
		return out, nil
	}
	return &pageStore{
		cache:        pager.NewCache(src, budget, o.Metrics, decode),
		cellsPerPage: per,
		cells:        cells,
	}
}

// page returns page pg's decoded cells. A read, checksum or cell failure
// panics with an ErrCorruptIndex-wrapping error: the Explorer call chain
// has no error returns, and the serving layer's recover shield
// (internal/batch) fails the one request as a corrupt-index error. The
// failure is not cached, so every query that touches the page fails and
// no other does.
func (ps *pageStore) page(pg int) []float64 {
	cells, err := ps.cache.Page(pg)
	if err != nil {
		panic(corrupt("matrix page fault: %v", err))
	}
	return cells
}

// row returns row ri of matrix d. A row inside one page is a read-only
// view of the cached page and allocates nothing; a row that straddles two
// or more pages is copied into *buf, which grows to the widest such row
// and is overwritten by the next straddling read.
func (ps *pageStore) row(d matDesc, ri int, buf *[]float64) []float64 {
	if d.cols == 0 {
		return nil
	}
	start := d.off + int64(ri)*int64(d.cols)
	pg := int(start / ps.cellsPerPage)
	lo := int(start - int64(pg)*ps.cellsPerPage)
	cells := ps.page(pg)
	if lo+d.cols <= len(cells) {
		return cells[lo : lo+d.cols : lo+d.cols]
	}
	if cap(*buf) < d.cols {
		*buf = make([]float64, 0, d.cols)
	}
	out := append((*buf)[:0], cells[lo:]...)
	for len(out) < d.cols {
		pg++
		cells = ps.page(pg)
		out = append(out, cells[:min(len(cells), d.cols-len(out))]...)
	}
	*buf = out
	return out
}

// row returns row ri of matrix d — a leaf's door × door matrix, one of its
// ancestor matrices, or an internal node's union matrix alike: a view of
// the cell slab on a resident tree, a view into the page cache on a paged
// tree (see pageStore.row for buf). Callers must not modify the row.
func (t *Tree) row(d matDesc, ri int, buf *[]float64) []float64 {
	if t.pages != nil {
		return t.pages.row(d, ri, buf)
	}
	off := d.off + int64(ri)*int64(d.cols)
	end := off + int64(d.cols)
	return t.cells[off:end:end]
}

// PagedSaveOptions configure SavePaged.
type PagedSaveOptions struct {
	// PageSize is the page payload size in bytes. Zero means
	// DefaultPageSize. Must be a positive multiple of 8 (so no cell
	// straddles a page boundary) and at most 128 MiB.
	PageSize int
}

// cellWriter streams the page heap's cells in layout order for WritePages
// as a cursor over the heap: a resident tree serves its slab, a paged tree
// the decoded page holding the cursor, so re-encoding a paged tree holds
// nothing beyond the page cache.
type cellWriter struct {
	t        *Tree
	pos, end int64 // next heap cell; heap cell count
}

// next appends up to max bytes of the remaining cell stream to dst.
func (cw *cellWriter) next(dst []byte, max int) []byte {
	for max >= cellSize && cw.pos < cw.end {
		cur := cw.t.cellsFrom(cw.pos)
		n := min(len(cur), max/cellSize)
		for _, f := range cur[:n] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		cw.pos += int64(n)
		max -= n * cellSize
	}
	return dst
}

// cellsFrom returns heap cells from pos on: to the end of the heap on a
// resident tree, to the end of pos's page on a paged tree.
func (t *Tree) cellsFrom(pos int64) []float64 {
	if t.pages == nil {
		return t.cells[pos:]
	}
	pg := pos / t.pages.cellsPerPage
	return t.pages.page(int(pg))[pos-pg*t.pages.cellsPerPage:]
}

// validatePageSize rejects page sizes the format cannot support.
func validatePageSize(ps int) error {
	if ps <= 0 || ps%cellSize != 0 || ps > maxPageSize {
		return fmt.Errorf("page size %d (need a positive multiple of %d, at most %d)", ps, cellSize, maxPageSize)
	}
	return nil
}

// SavePaged serializes the tree in the index file format (see
// serialize.go): a checksummed structure payload followed by the matrix
// page heap. It is read-only, safe to call concurrently with queries, and
// deterministic — the same tree and page size always encode to the same
// bytes regardless of Options.Workers (the worker count is a build-time
// knob, not a property of the index, and is cleared before encoding); tests
// rely on this to prove parallel construction exact.
//
// SavePaged works on paged trees too (matrices fault in one at a time);
// in that case a page failing verification surfaces as an
// ErrCorruptIndex-classified error, not a panic.
func (t *Tree) SavePaged(w io.Writer, o PagedSaveOptions) (err error) {
	ps := o.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if verr := validatePageSize(ps); verr != nil {
		return fmt.Errorf("%w: vip: %v", faults.ErrInvalidOptions, verr)
	}
	// Re-encoding a paged tree faults every matrix through accessors that
	// panic on verification failure; convert that back into the error it
	// wraps so SavePaged keeps an error-return contract.
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok && errors.Is(e, faults.ErrCorruptIndex) {
				err = e
				return
			}
			panic(p)
		}
	}()

	opts := t.opts
	opts.Workers = 0
	out := treeGob{
		Version:     gobVersion,
		VenueName:   t.venue.Name,
		Partitions:  t.venue.NumPartitions(),
		Doors:       t.venue.NumDoors(),
		Opts:        opts,
		Root:        t.root,
		LeafOf:      t.leafOf,
		Depth:       t.depth,
		PageSize:    ps,
		MatrixCells: int64(t.MemoryFootprint()),
	}
	for _, nd := range t.nodes {
		out.Nodes = append(out.Nodes, nodeGob{
			ID: nd.id, Parent: nd.parent, Children: nd.children,
			Parts: nd.parts, Leaf: nd.leaf,
			Doors: nd.doors, Access: nd.access,
			UDoors: nd.uDoors, AncIDs: nd.ancIDs,
		})
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(out); err != nil {
		return fmt.Errorf("vip: encoding tree structure: %w", err)
	}
	header := make([]byte, headerSize)
	copy(header, indexMagic[:])
	binary.LittleEndian.PutUint32(header[8:], pagedFormatVersion)
	binary.LittleEndian.PutUint64(header[12:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(header[20:], crc32.Checksum(payload.Bytes(), castagnoli))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("vip: writing index header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("vip: writing index structure: %w", err)
	}
	params := pager.Params{
		PageSize: ps,
		NumPages: pager.NumPagesFor(out.MatrixCells*cellSize, ps),
	}
	cw := &cellWriter{t: t, end: out.MatrixCells}
	if err := pager.WritePages(w, params, out.MatrixCells*cellSize, cw.next); err != nil {
		return fmt.Errorf("vip: writing matrix pages: %w", err)
	}
	return nil
}

// PagedOptions configure OpenPaged and OpenPagedFile.
type PagedOptions struct {
	// CacheBytes is the page-cache budget. Zero means
	// DefaultPageCacheBytes; negative means unlimited (every page stays
	// resident once faulted). A budget smaller than the venue's matrix
	// heap still serves exact answers — cold pages are re-read and
	// re-verified on each fault.
	CacheBytes int64
	// Metrics receives page-cache counter events; *obs.Metrics satisfies
	// it. Nil disables event reporting (the cache's own Stats still
	// count).
	Metrics pager.Metrics
}

// OpenPaged opens an index from any io.ReaderAt holding the complete file
// image (size bytes), binding it to venue v. The structure payload is
// read, verified, and validated exactly as Load does; the matrix pages are
// only bounds-checked against the file size here and fault in lazily on
// first use.
//
// The returned tree is safe for concurrent readers immediately. The caller
// keeps ownership of r: closing the tree does not close it. Use
// OpenPagedFile to open from a path with owned-file lifetime management.
func OpenPaged(r io.ReaderAt, size int64, v *indoor.Venue, o PagedOptions) (*Tree, error) {
	t, src, cells, err := openPagedStructure(r, size, v, nil)
	if err != nil {
		return nil, err
	}
	t.pages = newPageStore(src, cells, o)
	return t, nil
}

// OpenPagedFile opens an index file from disk lazily. The file stays open
// for the life of the returned tree (page faults read from it); call
// Tree.Close to release it. This is the serving-layer entry point for
// -indexfile style restarts.
func OpenPagedFile(path string, v *indoor.Venue, o PagedOptions) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("vip: opening index file: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("vip: stat index file: %w", err)
	}
	t, src, cells, err := openPagedStructure(f, fi.Size(), v, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.pages = newPageStore(src, cells, o)
	return t, nil
}

// openPagedStructure reads and validates everything up to (but not
// including) the page section: envelope, structure payload, decoded
// structure, layout cross-check, node links (linkNodes), and file-size
// check. It returns the tree with descriptors assigned and neither cells
// nor pages set, a page source over the section (closing closer, when
// non-nil, on Close), and the heap's cell count.
func openPagedStructure(r io.ReaderAt, size int64, v *indoor.Venue, closer io.Closer) (*Tree, *pager.FilePager, int64, error) {
	fail := func(err error) (*Tree, *pager.FilePager, int64, error) {
		return nil, nil, 0, err
	}
	if size < headerSize {
		return fail(corrupt("index file is %d bytes, smaller than the header", size))
	}
	header := make([]byte, headerSize)
	if _, err := r.ReadAt(header, 0); err != nil {
		return fail(corrupt("index header unreadable: %v", err))
	}
	structLen, err := checkHeader(header)
	if err != nil {
		return fail(err)
	}
	if int64(structLen) > size-headerSize {
		return fail(corrupt("implausible structure payload length %d", structLen))
	}
	payload := make([]byte, structLen)
	if _, err := r.ReadAt(payload, headerSize); err != nil {
		return fail(corrupt("index structure truncated: %v", err))
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.LittleEndian.Uint32(header[20:]) {
		return fail(corrupt("structure checksum mismatch (got %08x, header says %08x)",
			sum, binary.LittleEndian.Uint32(header[20:])))
	}

	var in treeGob
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&in); err != nil {
		return fail(corrupt("decoding tree structure: %v", err))
	}
	if in.Version != gobVersion {
		return fail(corrupt("unsupported tree payload version %d", in.Version))
	}
	if in.VenueName != v.Name || in.Partitions != v.NumPartitions() || in.Doors != v.NumDoors() {
		return fail(fmt.Errorf("%w: tree was built for venue %q (%d partitions, %d doors), got %q (%d, %d)",
			faults.ErrInvalidOptions,
			in.VenueName, in.Partitions, in.Doors, v.Name, v.NumPartitions(), v.NumDoors()))
	}
	if err := validatePageSize(in.PageSize); err != nil {
		return fail(corrupt("%v", err))
	}
	if in.MatrixCells < 0 {
		return fail(corrupt("negative matrix cell count %d", in.MatrixCells))
	}
	if err := validateTreeStructure(&in, v); err != nil {
		return fail(err)
	}

	t := &Tree{
		venue:  v,
		opts:   in.Opts,
		root:   in.Root,
		leafOf: in.LeafOf,
		depth:  in.Depth,
	}
	for _, ng := range in.Nodes {
		nd := &node{
			id: ng.ID, parent: ng.Parent, children: ng.Children,
			parts: ng.Parts, leaf: ng.Leaf,
			doors: ng.Doors, access: ng.Access,
			uDoors: ng.UDoors, ancIDs: ng.AncIDs,
		}
		t.nodes = append(t.nodes, nd)
	}
	if err := t.CheckInvariants(); err != nil {
		return fail(corrupt("loaded tree invalid: %v", err))
	}
	if got := t.layoutMatrices(); got != in.MatrixCells {
		return fail(corrupt("matrix layout yields %d cells, header says %d", got, in.MatrixCells))
	}
	if err := t.linkNodes(); err != nil {
		return fail(err)
	}
	params := pager.Params{
		PageSize: in.PageSize,
		NumPages: pager.NumPagesFor(in.MatrixCells*cellSize, in.PageSize),
	}
	secOff := int64(headerSize) + int64(structLen)
	if want := secOff + params.SectionLen(); size != want {
		return fail(corrupt("index file is %d bytes, layout wants %d", size, want))
	}
	src, err := pager.NewFilePager(r, secOff, params, closer)
	if err != nil {
		return fail(corrupt("page section: %v", err))
	}
	return t, src, in.MatrixCells, nil
}

// readResident reads every page of src once, in order — one read, one CRC
// and one decode per page — straight into the tree's cell slab, turning a
// tree fresh from openPagedStructure into a resident one. Load uses it to
// keep its eager contract: every page verified and every cell validated
// before the tree is returned.
func (t *Tree) readResident(src *pager.FilePager, cells int64) error {
	t.cells = make([]float64, cells)
	per := int64(src.Params().PageSize / cellSize)
	for pg := 0; pg < src.Params().NumPages; pg++ {
		payload, err := src.ReadPage(pg)
		if err != nil {
			return corrupt("matrix page fault: %v", err)
		}
		lo, hi := pageCells(pg, per, cells)
		if err := decodePageCells(t.cells[lo:hi], payload, lo); err != nil {
			return corrupt("%v", err)
		}
	}
	return nil
}

// Paged reports whether the tree faults its matrices from an on-disk page
// heap (OpenPaged/OpenPagedFile) rather than holding them resident.
func (t *Tree) Paged() bool { return t.pages != nil }

// PageCacheStats returns the paged tree's cache counters; resident trees
// return a zero Stats. Safe for concurrent use.
func (t *Tree) PageCacheStats() pager.Stats {
	if t.pages == nil {
		return pager.Stats{}
	}
	return t.pages.cache.Stats()
}

// Close releases a paged tree's resources — the page cache and the
// underlying file. Queries on the tree must have drained first;
// after Close every page fault fails. Resident trees have nothing to
// release and return nil. Close is not safe to call concurrently with
// queries.
func (t *Tree) Close() error {
	if t.pages == nil {
		return nil
	}
	return t.pages.cache.Close()
}
