package vip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/indoor"
)

// The paper indexes the venue once offline and reuses the index across
// queries. SavePaged persists a built tree — its structure and all
// distance matrices — so a process can Load (eager) or OpenPaged (lazy)
// the index without re-running the construction Dijkstras. The venue
// itself is serialized separately (indoor JSON); both readers verify the
// tree matches the venue it is opened against.
//
// # Index file format
//
// Because index files are loaded at process startup and a silently corrupt
// index would serve wrong distances for every query, the on-disk format is
// a self-verifying envelope around the tree structure, followed by a heap
// of individually-checksummed matrix pages (see paged.go):
//
//	offset  size  field
//	0       8     magic "IFLSVIP\x00"
//	8       4     format version, uint32 little-endian (3)
//	12      8     structure payload length n, uint64 little-endian
//	20      4     CRC-32C (Castagnoli) of the structure payload
//	24      n     gob-encoded treeGob (structure only, no cells)
//	24+n    ...   page section: NumPages × (PageSize payload + 4-byte
//	              CRC-32C trailer); final page zero-padded
//
// Both readers verify the envelope (magic, version, length, checksum),
// decode the structure, deep-validate it (reference ranges, ancestor
// chains), cross-check the derived matrix layout against the recorded cell
// count, and check the file size against the page geometry before
// constructing a Tree. Page CRCs and cell values (non-negative, non-NaN;
// +Inf is legal) are verified as pages are read. Every integrity failure is
// classified faults.ErrCorruptIndex; opening an index against the wrong
// venue is faults.ErrInvalidOptions (the file is fine, the pairing is
// not). A failed open never returns a partial tree.
//
// Version 2 — one monolithic gob payload carrying every matrix inline — is
// no longer read. Its header is refused before any payload byte is read,
// with a message naming the command that rebuilds the file.

// treeGob is the structure payload of an index file: the tree minus every
// matrix, plus the page geometry and the derived cell count (stored so the
// reader can cross-check its own layout walk against the writer's before
// trusting any page math).
type treeGob struct {
	Version     int
	VenueName   string
	Partitions  int
	Doors       int
	Opts        Options
	Root        NodeID
	LeafOf      []NodeID
	Depth       []int
	Nodes       []nodeGob
	PageSize    int
	MatrixCells int64
}

// nodeGob is one tree node of the structure payload.
type nodeGob struct {
	ID       NodeID
	Parent   NodeID
	Children []NodeID
	Parts    []indoor.PartitionID
	Leaf     bool
	Doors    []indoor.DoorID
	Access   []indoor.DoorID
	UDoors   []indoor.DoorID
	AncIDs   []NodeID
}

// gobVersion is the payload schema version carried inside the gob.
const gobVersion = 1

// pagedFormatVersion is the envelope version in the file header. Version 1
// was a bare gob stream with no integrity header, version 2 a monolithic
// gob under the magic/version/length/CRC envelope; version 3 moved the
// matrices into the page heap.
const pagedFormatVersion = 3

// monolithicFormatVersion is the retired version-2 envelope, refused with a
// rebuild hint.
const monolithicFormatVersion = 2

// headerSize is the fixed envelope length preceding the structure payload.
const headerSize = 24

// indexMagic is the 8-byte file signature. The trailing NUL keeps the
// magic from ever being a prefix of valid UTF-8 text formats.
var indexMagic = [8]byte{'I', 'F', 'L', 'S', 'V', 'I', 'P', 0}

// maxIndexPayload caps the declared structure length a reader will
// allocate for, and the stream size Load slurps into memory. The bound is
// exclusive: a header declaring this much or more is corrupt (or
// adversarial), not large.
const maxIndexPayload = 1 << 31

// castagnoli is the CRC-32C table used for the structure checksum (the
// same polynomial used by iSCSI and ext4 — hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// corrupt wraps a description into the ErrCorruptIndex class.
func corrupt(format string, a ...any) error {
	return fmt.Errorf("%w: %s", faults.ErrCorruptIndex, fmt.Sprintf(format, a...))
}

// checkHeader verifies the envelope's magic and version and returns the
// declared structure payload length, bounded by maxIndexPayload. It needs
// only the header bytes, so a retired or foreign file is refused before any
// payload is read.
func checkHeader(header []byte) (uint64, error) {
	if !bytes.Equal(header[:8], indexMagic[:]) {
		return 0, corrupt("bad magic %q (not an IFLS index file)", header[:8])
	}
	switch ver := binary.LittleEndian.Uint32(header[8:]); ver {
	case pagedFormatVersion:
	case monolithicFormatVersion:
		return 0, corrupt("index format version 2 (monolithic) is no longer supported; " +
			"rebuild the file with: iflsd -venues NAME -saveindex NAME=PATH -build-only")
	default:
		return 0, corrupt("unsupported index format version %d (this build reads %d)", ver, pagedFormatVersion)
	}
	structLen := binary.LittleEndian.Uint64(header[12:])
	if structLen == 0 || structLen >= maxIndexPayload {
		return 0, corrupt("implausible structure payload length %d", structLen)
	}
	return structLen, nil
}

// Load restores a tree previously written with SavePaged and binds it to
// venue v, which must be the same venue the tree was built from (verified
// by name and by partition/door counts; a mismatch is ErrInvalidOptions).
// Any integrity failure — truncation, bit flips, header tampering, a
// structure that fails validation, a bad page or cell — returns
// ErrCorruptIndex and no tree.
//
// Load is the eager reader: the stream is slurped into memory (at most
// maxIndexPayload bytes; larger files must be opened with OpenPagedFile),
// every page verified and every matrix materialized, so the returned tree
// is fully resident and immediately safe for concurrent readers. The one
// exception to eager initialization is the door-to-door graph, which is
// not serialized; Tree.Graph rebuilds it on first use behind a sync.Once,
// keeping that path concurrency-safe too.
func Load(r io.Reader, v *indoor.Venue) (*Tree, error) {
	header := make([]byte, headerSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, corrupt("index header truncated: %v", err)
	}
	if _, err := checkHeader(header); err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(io.LimitReader(r, maxIndexPayload))
	if err != nil {
		return nil, corrupt("reading index stream: %v", err)
	}
	if int64(len(rest)) == maxIndexPayload {
		return nil, corrupt("index stream exceeds the %d-byte in-memory limit (open it with OpenPagedFile)", maxIndexPayload)
	}
	all := append(header, rest...)
	t, src, cells, err := openPagedStructure(bytes.NewReader(all), int64(len(all)), v, nil)
	if err != nil {
		return nil, err
	}
	// Peak memory is the stream plus the matrices, and each page is read
	// and checksummed once.
	if err := t.readResident(src, cells); err != nil {
		return nil, err
	}
	return t, nil
}

// validateTreeStructure deep-validates a decoded structure payload before
// any Tree is constructed from it: reference ranges, ID/array consistency,
// and the ancestor-list shape. Range checks run here, before
// CheckInvariants, because the invariant checker indexes slices by decoded
// IDs and would panic on out-of-range values instead of returning an error.
// The page layout is derived entirely from this structure, so the ancestor
// checks here are what make the derived cell offsets trustworthy.
func validateTreeStructure(in *treeGob, v *indoor.Venue) error {
	nNodes := len(in.Nodes)
	if nNodes == 0 {
		return corrupt("tree has no nodes")
	}
	if in.Root < 0 || int(in.Root) >= nNodes {
		return corrupt("root %d out of range [0,%d)", in.Root, nNodes)
	}
	if len(in.LeafOf) != v.NumPartitions() {
		return corrupt("leafOf has %d entries, venue has %d partitions", len(in.LeafOf), v.NumPartitions())
	}
	for p, id := range in.LeafOf {
		if id < 0 || int(id) >= nNodes {
			return corrupt("leafOf[%d] = %d out of range [0,%d)", p, id, nNodes)
		}
	}
	if len(in.Depth) != nNodes {
		return corrupt("depth has %d entries for %d nodes", len(in.Depth), nNodes)
	}
	nodeRef := func(what string, i int, id NodeID) error {
		if id < 0 || int(id) >= nNodes {
			return corrupt("node %d: %s %d out of range [0,%d)", i, what, id, nNodes)
		}
		return nil
	}
	doorRef := func(what string, i int, id indoor.DoorID) error {
		if id < 0 || int(id) >= v.NumDoors() {
			return corrupt("node %d: %s door %d out of range [0,%d)", i, what, id, v.NumDoors())
		}
		return nil
	}
	for i, ng := range in.Nodes {
		if ng.ID != NodeID(i) {
			return corrupt("node at index %d has id %d", i, ng.ID)
		}
		if ng.Parent != NoNode {
			if err := nodeRef("parent", i, ng.Parent); err != nil {
				return err
			}
		}
		for _, c := range ng.Children {
			if err := nodeRef("child", i, c); err != nil {
				return err
			}
		}
		for _, p := range ng.Parts {
			if p < 0 || int(p) >= v.NumPartitions() {
				return corrupt("node %d: partition %d out of range [0,%d)", i, p, v.NumPartitions())
			}
		}
		for _, d := range ng.Doors {
			if err := doorRef("leaf", i, d); err != nil {
				return err
			}
		}
		for _, d := range ng.Access {
			if err := doorRef("access", i, d); err != nil {
				return err
			}
		}
		for _, d := range ng.UDoors {
			if err := doorRef("union", i, d); err != nil {
				return err
			}
		}
		for _, a := range ng.AncIDs {
			if err := nodeRef("ancestor", i, a); err != nil {
				return err
			}
		}
		// Only vivid leaves carry ancestor lists, and a vivid leaf's list
		// must be exactly its strict-ancestor chain, parent first — that is
		// what Build writes, what pathADVec assumes, and what the paged
		// layout derives matrix geometry from. The walk is bounded by
		// nNodes so a parent cycle (not yet excluded — CheckInvariants runs
		// later) fails cleanly instead of spinning.
		if !ng.Leaf || !in.Opts.Vivid {
			if len(ng.AncIDs) != 0 {
				return corrupt("node %d: unexpected ancestor list (%d entries)", i, len(ng.AncIDs))
			}
		} else {
			a, steps := ng.Parent, 0
			for k := 0; ; k++ {
				if a == NoNode {
					if k != len(ng.AncIDs) {
						return corrupt("node %d: %d ancestor ids for a chain of %d", i, len(ng.AncIDs), k)
					}
					break
				}
				if k >= len(ng.AncIDs) || ng.AncIDs[k] != a {
					return corrupt("node %d: ancestor id list diverges from the parent chain at %d", i, k)
				}
				if steps++; steps > nNodes {
					return corrupt("node %d: parent chain cycles", i)
				}
				a = in.Nodes[a].Parent
			}
		}
	}
	return nil
}
