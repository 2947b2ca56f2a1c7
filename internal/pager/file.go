package pager

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FilePager serves pages with positioned reads from an io.ReaderAt — an
// open file in production, a bytes.Reader in tests and in the eager
// vip.Load path. Every ReadPage issues one pread of PageSize+PageCRCSize
// bytes and verifies the checksum before returning; the returned payload
// is a fresh heap slice, so it stays valid for as long as the caller
// holds it, independent of the pager's lifetime.
//
// Safe for concurrent use: ReaderAt is positionless, and the pager itself
// holds no mutable state.
type FilePager struct {
	r      io.ReaderAt
	off    int64 // file offset of page 0
	params Params
	closer io.Closer // closed by Close when non-nil
}

// NewFilePager returns a pread-backed source over the page section starting
// at byte offset off of r. When closer is non-nil (an owned *os.File),
// Close closes it; pass nil when the caller owns the reader's lifetime.
func NewFilePager(r io.ReaderAt, off int64, p Params, closer io.Closer) (*FilePager, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, fmt.Errorf("pager: negative section offset %d", off)
	}
	return &FilePager{r: r, off: off, params: p, closer: closer}, nil
}

// Params returns the section geometry.
func (fp *FilePager) Params() Params { return fp.params }

// ReadPage returns page i's payload (exactly PageSize bytes), verified
// against its on-disk checksum. Out-of-range indexes and verification
// failures return an error wrapping ErrCorruptPage.
func (fp *FilePager) ReadPage(i int) ([]byte, error) {
	if i < 0 || i >= fp.params.NumPages {
		return nil, fmt.Errorf("%w: page %d out of range [0,%d)", ErrCorruptPage, i, fp.params.NumPages)
	}
	stride := fp.params.PageSize + PageCRCSize
	buf := make([]byte, stride)
	if _, err := fp.r.ReadAt(buf, fp.off+int64(i)*int64(stride)); err != nil {
		return nil, fmt.Errorf("%w: page %d read: %v", ErrCorruptPage, i, err)
	}
	payload := buf[:fp.params.PageSize]
	want := binary.LittleEndian.Uint32(buf[fp.params.PageSize:])
	if got := Checksum(payload); got != want {
		return nil, fmt.Errorf("%w: page %d checksum mismatch (got %08x, disk says %08x)", ErrCorruptPage, i, got, want)
	}
	return payload, nil
}

// Close closes the owned file, if any.
func (fp *FilePager) Close() error {
	if fp.closer != nil {
		return fp.closer.Close()
	}
	return nil
}

// WritePages streams the full page section for a payload produced
// incrementally by next: next must append exactly the remaining payload
// bytes in order, up to max bytes per call, returning the extended slice.
// WritePages slices the stream into fixed-size pages, zero-pads the final
// page, and writes each page followed by its CRC-32C trailer. totalBytes is
// the exact number of payload bytes next will produce; the page count is
// NumPagesFor(totalBytes, p.PageSize).
//
// The writer side lives here so the on-disk trailer layout is owned by one
// package; the index serializer calls it with a cell-encoding callback.
func WritePages(w io.Writer, p Params, totalBytes int64, next func(dst []byte, max int) []byte) error {
	if err := p.validate(); err != nil {
		return err
	}
	var produced int64
	page := make([]byte, 0, p.PageSize)
	trailer := make([]byte, PageCRCSize)
	for i := 0; i < p.NumPages; i++ {
		page = page[:0]
		for len(page) < p.PageSize && produced+int64(len(page)) < totalBytes {
			before := len(page)
			page = next(page, p.PageSize-len(page))
			if len(page) <= before {
				return fmt.Errorf("pager: page payload producer stalled at %d/%d bytes", produced+int64(before), totalBytes)
			}
			if len(page) > p.PageSize {
				return fmt.Errorf("pager: page payload producer overfilled page %d (%d > %d)", i, len(page), p.PageSize)
			}
		}
		produced += int64(len(page))
		// Zero-pad the final partial page to full size: fixed geometry keeps
		// ReadPage's pread length constant and the CRC well-defined.
		for len(page) < p.PageSize {
			page = append(page, 0)
		}
		binary.LittleEndian.PutUint32(trailer, Checksum(page))
		if _, err := w.Write(page); err != nil {
			return fmt.Errorf("pager: writing page %d: %w", i, err)
		}
		if _, err := w.Write(trailer); err != nil {
			return fmt.Errorf("pager: writing page %d trailer: %w", i, err)
		}
	}
	if produced != totalBytes {
		return fmt.Errorf("pager: payload producer yielded %d bytes, want %d", produced, totalBytes)
	}
	return nil
}

// NumPagesFor returns the page count needed to hold totalBytes of payload
// at the given page size.
func NumPagesFor(totalBytes int64, pageSize int) int {
	if totalBytes <= 0 {
		return 0
	}
	return int((totalBytes + int64(pageSize) - 1) / int64(pageSize))
}
