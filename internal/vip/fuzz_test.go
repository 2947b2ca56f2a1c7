package vip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/pager"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// FuzzLoadTree: arbitrary bytes fed to Load must never panic and never
// return an untyped error — every failure is ErrCorruptIndex (integrity)
// or ErrInvalidOptions (venue pairing). Success must yield a tree whose
// invariants hold. testdata/fuzz/FuzzLoadTree checks in minimized corrupt
// inputs so the interesting branches replay in plain `go test`.
func FuzzLoadTree(f *testing.F) {
	v := testvenue.Corridor3()
	tree := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	var buf bytes.Buffer
	if err := tree.SavePaged(&buf, PagedSaveOptions{PageSize: 64}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	secOff := 24 + int(binary.LittleEndian.Uint64(valid[12:]))

	// Seeds: the valid file plus structured corruptions of it —
	// truncations, header tampering, structure and page-heap damage.
	f.Add(valid)
	f.Add(valid[:7])
	f.Add(valid[:24])
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte("not an index file at all"))
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xff
	f.Add(bad)
	bad = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(bad[8:], 7)
	f.Add(bad)
	bad = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(bad[12:], 1<<62)
	f.Add(bad)
	bad = append([]byte(nil), valid...)
	bad[30] ^= 0x10 // structure payload flip
	f.Add(bad)
	// The allocation-cap boundary: a header declaring exactly maxIndexPayload
	// must stay on the reject side of the (exclusive) bound.
	bad = append([]byte(nil), valid[:24]...)
	binary.LittleEndian.PutUint64(bad[12:], maxIndexPayload)
	f.Add(bad)
	bad = append([]byte(nil), valid...)
	bad[secOff+5] ^= 0x01 // bit flip inside the first page's payload
	f.Add(bad)
	f.Add(valid[:secOff+30]) // page section truncated mid-page
	bad = append([]byte(nil), valid...)
	bad[secOff+64] ^= 0xff // first CRC trailer byte of page 0
	f.Add(bad)
	// The retired monolithic format, refused from its header.
	bad = append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(bad[8:], 2)
	f.Add(bad)
	// Bad cell values under a recomputed page CRC, so the cell check — not
	// the checksum — is what refuses them.
	for _, cell := range []float64{-1, math.NaN()} {
		bad = append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(bad[secOff+8:], math.Float64bits(cell))
		binary.LittleEndian.PutUint32(bad[secOff+64:], pager.Checksum(bad[secOff:secOff+64]))
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data), v)
		if err != nil {
			if loaded != nil {
				t.Fatal("Load returned a tree alongside an error")
			}
			if !errors.Is(err, faults.ErrCorruptIndex) && !errors.Is(err, faults.ErrInvalidOptions) {
				t.Fatalf("untyped Load error: %v", err)
			}
			return
		}
		// A load that succeeds must be fully usable.
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("loaded tree violates invariants: %v", err)
		}
	})
}
