// Package pager provides fixed-size verified pages over a random-access
// byte section, read with positioned reads by a FilePager, and an LRU page
// cache with a configurable byte budget.
//
// It is the storage substrate of the paged index store: a section of a file
// is divided into fixed-size pages, each followed on disk by its own
// CRC-32C, so a page can be read, verified, and cached independently of
// every other page. Callers fault pages in lazily through a Cache, which
// decodes each page once, at fault time, through a caller-supplied hook
// and keeps the decoded form; pages that fall out of the budget are
// dropped and re-read, re-verified and re-decoded on the next fault. The
// package knows nothing about what the bytes mean — internal/vip lays
// distance matrices over the page space and decodes pages into cells.
//
// FilePager reads pages with positioned reads (pread) from any
// io.ReaderAt — an open file, or a bytes.Reader over an in-memory image —
// and verifies the per-page checksum on every read.
//
// Concurrency: FilePager and the Cache are safe for concurrent use. Page
// payloads and decoded pages are immutable — callers must treat them as
// read-only, and in exchange may hold a decoded page across cache
// evictions (it stays valid; the cache merely forgets it).
package pager

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// PageCRCSize is the number of bytes appended to each page's payload on
// disk: a little-endian CRC-32C (Castagnoli) of the payload.
const PageCRCSize = 4

// ErrCorruptPage classifies page reads that fail integrity verification: a
// checksum mismatch or a read that could not produce the page's full
// payload. Wrapped errors carry the page index.
var ErrCorruptPage = errors.New("pager: corrupt page")

// castagnoli is the CRC-32C table used for page checksums — the same
// polynomial the index-file envelope uses, hardware-accelerated on
// amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of a page payload, as stored in the page's
// on-disk trailer.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// Params describe one paged section: NumPages fixed-size pages of PageSize
// payload bytes each, every page followed on disk by PageCRCSize checksum
// bytes. The section's total on-disk length is NumPages * (PageSize +
// PageCRCSize); the final page is zero-padded to full size by the writer.
type Params struct {
	// PageSize is the payload bytes per page (excluding the checksum).
	PageSize int
	// NumPages is the number of pages in the section.
	NumPages int
}

// validate rejects unusable geometry before a source is constructed.
func (p Params) validate() error {
	if p.PageSize <= 0 {
		return fmt.Errorf("pager: page size %d must be positive", p.PageSize)
	}
	if p.NumPages < 0 {
		return fmt.Errorf("pager: negative page count %d", p.NumPages)
	}
	return nil
}

// SectionLen returns the on-disk length of the whole page section.
func (p Params) SectionLen() int64 {
	return int64(p.NumPages) * int64(p.PageSize+PageCRCSize)
}
