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

// layoutMatrices walks the deterministic matrix layout — node-ID order;
// leaf: full matrix then ancestor matrices in ancIDs order; internal:
// union matrix — and returns the total cell count. With assign=true it
// also stores each matrix's descriptor on its node (the paged read path);
// with assign=false it is a pure size computation. Requires only the tree
// structure (door lists), not the matrices themselves.
func (t *Tree) layoutMatrices(assign bool) int64 {
	var off int64
	place := func(rows, cols int) matDesc {
		d := matDesc{off: off, rows: rows, cols: cols}
		off += d.cells()
		return d
	}
	for _, nd := range t.nodes {
		if nd.leaf {
			fd := place(len(nd.doors), len(nd.doors))
			var ancD []matDesc
			for _, a := range nd.ancIDs {
				ancD = append(ancD, place(len(nd.doors), len(t.nodes[a].access)))
			}
			if assign {
				nd.fullD, nd.ancD = fd, ancD
			}
		} else {
			ud := place(len(nd.uDoors), len(nd.uDoors))
			if assign {
				nd.uD = ud
			}
		}
	}
	return off
}

// pageStore is a paged tree's connection to its on-disk matrix cells: an
// LRU cache over the page section plus the geometry needed to turn cell
// offsets into page indexes.
type pageStore struct {
	cache    *pager.Cache
	pageSize int
}

// matrixErr materializes the matrix at d from the page heap, verifying
// every page it touches and every decoded cell. The returned matrix is a
// fresh allocation owned by the caller.
func (ps *pageStore) matrixErr(d matDesc) ([][]float64, error) {
	m := make([][]float64, d.rows)
	n := int(d.cells())
	if n == 0 {
		for i := range m {
			m[i] = nil
		}
		return m, nil
	}
	backing := make([]float64, n)
	for i := range m {
		m[i] = backing[i*d.cols : (i+1)*d.cols]
	}
	if err := ps.decodeCells(backing, d.off); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeCells fills dst with heap cells [start, start+len(dst)), faulting
// the covering pages through the cache and validating every cell (finite
// non-negative or +Inf, never NaN) as it decodes.
func (ps *pageStore) decodeCells(dst []float64, start int64) error {
	byteOff := start * cellSize
	for ci := 0; ci < len(dst); {
		pos := byteOff + int64(ci)*cellSize
		pg := int(pos / int64(ps.pageSize))
		payload, err := ps.cache.Page(pg)
		if err != nil {
			return corrupt("matrix page fault: %v", err)
		}
		for off := int(pos - int64(pg)*int64(ps.pageSize)); off+cellSize <= ps.pageSize && ci < len(dst); off += cellSize {
			f := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			if math.IsNaN(f) || f < 0 {
				return corrupt("paged matrix cell %d = %v (distances are non-negative, non-NaN)", start+int64(ci), f)
			}
			dst[ci] = f
			ci++
		}
	}
	return nil
}

// sparseRows materializes only rows idx of matrix d, returned in a slice
// indexed like the complete matrix — m[ri] is row ri for every ri in idx,
// nil elsewhere — so call sites index it exactly as they would the resident
// matrix. Queries touch a handful of rows of matrices that can run to
// megabytes; decoding per row instead of per matrix is what keeps a paged
// tree's query cost proportional to the doors involved, not to matrix
// size. Panics with an ErrCorruptIndex-wrapping error on verification
// failure, like matrix.
func (ps *pageStore) sparseRows(d matDesc, idx []int) [][]float64 {
	m := make([][]float64, d.rows)
	if d.cols == 0 {
		return m
	}
	backing := make([]float64, len(idx)*d.cols)
	for i, ri := range idx {
		if m[ri] != nil {
			continue // duplicate request; already decoded
		}
		row := backing[i*d.cols : (i+1)*d.cols]
		if err := ps.decodeCells(row, d.off+int64(ri)*int64(d.cols)); err != nil {
			panic(err)
		}
		m[ri] = row
	}
	return m
}

// matrix is matrixErr for the query hot path: integrity failures panic
// with the ErrCorruptIndex-wrapping error instead of returning it, because
// the Explorer call chain has no error returns. The serving layer's
// recover shield (internal/batch) catches the panic and fails the one
// request as a corrupt-index error.
func (ps *pageStore) matrix(d matDesc) [][]float64 {
	m, err := ps.matrixErr(d)
	if err != nil {
		panic(err)
	}
	return m
}

// fullMat returns leaf nd's door×door matrix — the node's own slice for
// resident trees, a fresh materialization from the page heap for paged
// trees (panicking on verification failure; see pageStore.matrix).
func (t *Tree) fullMat(nd *node) [][]float64 {
	if t.pages == nil {
		return nd.full
	}
	return t.pages.matrix(nd.fullD)
}

// unionMat returns internal node nd's union-door matrix; paged trees fault
// it in (see fullMat).
func (t *Tree) unionMat(nd *node) [][]float64 {
	if t.pages == nil {
		return nd.uMat
	}
	return t.pages.matrix(nd.uD)
}

// ancestorMat returns leaf nd's k-th ancestor matrix (ancIDs order); paged
// trees fault it in (see fullMat).
func (t *Tree) ancestorMat(nd *node, k int) [][]float64 {
	if t.pages == nil {
		return nd.anc[k]
	}
	return t.pages.matrix(nd.ancD[k])
}

// fullMatRows is fullMat restricted to rows idx: resident trees return the
// whole matrix (free), paged trees materialize exactly the requested rows
// (see pageStore.sparseRows) and idx must cover every row the caller will
// index. The query hot paths use these row accessors so a paged query
// decodes the rows it touches, not whole matrices. A nil idx on a paged
// tree yields no rows.
func (t *Tree) fullMatRows(nd *node, idx []int) [][]float64 {
	if t.pages == nil {
		return nd.full
	}
	return t.pages.sparseRows(nd.fullD, idx)
}

// unionMatRows is unionMat restricted to rows idx (see fullMatRows).
func (t *Tree) unionMatRows(nd *node, idx []int) [][]float64 {
	if t.pages == nil {
		return nd.uMat
	}
	return t.pages.sparseRows(nd.uD, idx)
}

// ancestorMatRows is ancestorMat restricted to rows idx (see fullMatRows).
func (t *Tree) ancestorMatRows(nd *node, k int, idx []int) [][]float64 {
	if t.pages == nil {
		return nd.anc[k]
	}
	return t.pages.sparseRows(nd.ancD[k], idx)
}

// PagedSaveOptions configure SavePaged.
type PagedSaveOptions struct {
	// PageSize is the page payload size in bytes. Zero means
	// DefaultPageSize. Must be a positive multiple of 8 (so no cell
	// straddles a page boundary) and at most 128 MiB.
	PageSize int
}

// cellWriter streams the page heap's cells in layout order for WritePages:
// it drains one matrix at a time through lazily-invoked fetchers, so at
// most one matrix is materialized at once even when re-encoding a paged
// tree.
type cellWriter struct {
	mats     []func() [][]float64
	cur      [][]float64
	row, col int
}

// next appends up to max bytes of the remaining cell stream to dst.
func (cw *cellWriter) next(dst []byte, max int) []byte {
	var b [cellSize]byte
	for max >= cellSize {
		for cw.cur == nil || cw.row >= len(cw.cur) {
			if len(cw.mats) == 0 {
				return dst
			}
			cw.cur = cw.mats[0]()
			cw.mats = cw.mats[1:]
			cw.row, cw.col = 0, 0
		}
		row := cw.cur[cw.row]
		for cw.col < len(row) && max >= cellSize {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(row[cw.col]))
			dst = append(dst, b[:]...)
			cw.col++
			max -= cellSize
		}
		if cw.col >= len(row) {
			cw.row++
			cw.col = 0
		}
	}
	return dst
}

// matrixFetchers returns one lazy fetcher per matrix, in exactly the
// layout walk's order. Fetchers go through the paged accessors, so they
// work for resident and paged trees alike.
func (t *Tree) matrixFetchers() []func() [][]float64 {
	var mats []func() [][]float64
	for _, nd := range t.nodes {
		nd := nd
		if nd.leaf {
			mats = append(mats, func() [][]float64 { return t.fullMat(nd) })
			for k := range nd.ancIDs {
				k := k
				mats = append(mats, func() [][]float64 { return t.ancestorMat(nd, k) })
			}
		} else {
			mats = append(mats, func() [][]float64 { return t.unionMat(nd) })
		}
	}
	return mats
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
		MatrixCells: t.layoutMatrices(false),
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
	cw := &cellWriter{mats: t.matrixFetchers()}
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
	// Mmap (OpenPagedFile only) maps the page section read-only instead of
	// using positioned reads. Silently falls back to pread on platforms
	// without mmap support or when the page section is empty.
	Mmap bool
}

// newPageStore wraps src in an LRU cache per the options.
func newPageStore(src pager.PageSource, o PagedOptions) *pageStore {
	budget := o.CacheBytes
	if budget == 0 {
		budget = DefaultPageCacheBytes
	} else if budget < 0 {
		budget = math.MaxInt64
	}
	return &pageStore{
		cache:    pager.NewCache(src, budget, o.Metrics),
		pageSize: src.Params().PageSize,
	}
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
	t, params, secOff, err := openPagedStructure(r, size, v)
	if err != nil {
		return nil, err
	}
	src, err := pager.NewFilePager(r, secOff, params, nil)
	if err != nil {
		return nil, corrupt("page section: %v", err)
	}
	t.pages = newPageStore(src, o)
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
	t, params, secOff, err := openPagedStructure(f, fi.Size(), v)
	if err != nil {
		f.Close()
		return nil, err
	}
	var src pager.PageSource
	if o.Mmap && pager.MmapSupported && params.NumPages > 0 {
		mp, merr := pager.NewMmapPager(f, secOff, params)
		if merr != nil {
			f.Close()
			return nil, fmt.Errorf("vip: mapping index pages: %w", merr)
		}
		// The mapping outlives the descriptor; close the file now and let
		// Tree.Close unmap.
		f.Close()
		src = mp
	} else {
		src, err = pager.NewFilePager(f, secOff, params, f)
		if err != nil {
			f.Close()
			return nil, corrupt("page section: %v", err)
		}
	}
	t.pages = newPageStore(src, o)
	return t, nil
}

// openPagedStructure reads and validates everything up to (but not
// including) the page section: envelope, structure payload, decoded
// structure, layout cross-check, and file-size check. It returns the tree
// with descriptors assigned and pages unset, plus the page-section
// geometry and offset.
func openPagedStructure(r io.ReaderAt, size int64, v *indoor.Venue) (*Tree, pager.Params, int64, error) {
	fail := func(err error) (*Tree, pager.Params, int64, error) {
		return nil, pager.Params{}, 0, err
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
		if nd.leaf {
			nd.doorIdx = denseIdx(t.venue.NumDoors(), nd.doors)
		} else {
			nd.uIdx = denseIdx(t.venue.NumDoors(), nd.uDoors)
		}
		t.nodes = append(t.nodes, nd)
	}
	if err := t.CheckInvariants(); err != nil {
		return fail(corrupt("loaded tree invalid: %v", err))
	}
	if got := t.layoutMatrices(true); got != in.MatrixCells {
		return fail(corrupt("matrix layout yields %d cells, header says %d", got, in.MatrixCells))
	}
	params := pager.Params{
		PageSize: in.PageSize,
		NumPages: pager.NumPagesFor(in.MatrixCells*cellSize, in.PageSize),
	}
	secOff := int64(headerSize) + int64(structLen)
	if want := secOff + params.SectionLen(); size != want {
		return fail(corrupt("index file is %d bytes, layout wants %d", size, want))
	}
	return t, params, secOff, nil
}

// materializeAll faults every matrix into the node slices and detaches the
// page store, turning a paged tree into a resident one. Load uses it to
// keep its eager contract (every page verified, every cell validated
// before the tree is returned).
func (t *Tree) materializeAll() error {
	ps := t.pages
	if ps == nil {
		return nil
	}
	for _, nd := range t.nodes {
		if nd.leaf {
			m, err := ps.matrixErr(nd.fullD)
			if err != nil {
				return err
			}
			nd.full = m
			nd.anc = make([][][]float64, len(nd.ancD))
			for k, d := range nd.ancD {
				am, err := ps.matrixErr(d)
				if err != nil {
					return err
				}
				nd.anc[k] = am
			}
		} else {
			m, err := ps.matrixErr(nd.uD)
			if err != nil {
				return err
			}
			nd.uMat = m
		}
	}
	t.pages = nil
	return ps.cache.Close()
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
// underlying file or mapping. Queries on the tree must have drained first;
// after Close every page fault fails. Resident trees have nothing to
// release and return nil. Close is not safe to call concurrently with
// queries.
func (t *Tree) Close() error {
	if t.pages == nil {
		return nil
	}
	return t.pages.cache.Close()
}

// VerifyPages reads and checksums every page of a paged tree without
// touching the cache — an offline integrity sweep (iflsd -checkindex
// style). Resident trees trivially pass. Safe for concurrent use.
func (t *Tree) VerifyPages() error {
	if t.pages == nil {
		return nil
	}
	src := t.pages.cache.Source()
	for i := 0; i < src.Params().NumPages; i++ {
		if _, err := src.ReadPage(i); err != nil {
			return corrupt("%v", err)
		}
	}
	return nil
}
