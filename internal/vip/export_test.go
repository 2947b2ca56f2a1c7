package vip

import (
	"bytes"
	"io"
	"testing"

	"github.com/indoorspatial/ifls/internal/pager"
)

// Hooks for the external test package vip_test, whose tests drive the
// query engine: internal/core imports vip, so they cannot live in package
// vip itself.

// SavePagedBytes is savePagedBytes.
func SavePagedBytes(t testing.TB, tree *Tree, pageSize int) []byte {
	return savePagedBytes(t, tree, pageSize)
}

// WithCell is withCell.
func WithCell(t *testing.T, data []byte, i int64, f float64) []byte { return withCell(t, data, i, f) }

// UnionCells returns the heap index of cell [0][1] of every internal
// node's union matrix that has two columns, in node order.
func UnionCells(tree *Tree) []int64 {
	var out []int64
	for _, nd := range tree.nodes {
		if !nd.leaf && nd.uD.cols > 1 {
			out = append(out, nd.uD.off+1)
		}
	}
	return out
}

// UnionCellOn returns a cell of an internal node's union matrix that lies
// on page page of the page section (pages of pageSize bytes), or -1 when
// no union cell does.
func UnionCellOn(tree *Tree, page int64, pageSize int) int64 {
	lo, hi := page*int64(pageSize)/cellSize, (page+1)*int64(pageSize)/cellSize
	for _, nd := range tree.nodes {
		if nd.leaf {
			continue
		}
		if start, end := nd.uD.off, nd.uD.off+int64(nd.uD.rows*nd.uD.cols); start < hi && end > lo {
			return max(start, lo)
		}
	}
	return -1
}

// RecordPages returns a reader over index file data that records, in the
// returned set, every page of the page section (pages of pageSize bytes)
// read through it.
func RecordPages(data []byte, pageSize int) (io.ReaderAt, map[int64]bool) {
	rec := &pageRecorder{
		r:      bytes.NewReader(data),
		secOff: int64(headerSize + structLen(data)),
		stride: int64(pageSize + pager.PageCRCSize),
		pages:  map[int64]bool{},
	}
	return rec, rec.pages
}
