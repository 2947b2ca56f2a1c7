package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/geom"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/venues"
)

// normalPins holds, per venue, the FNV-64a hash of 500 Normal clients for
// each (seed, sigma) pair in normalPinSeeds × normalPinSigmas, row-major.
// Normal clients reach their room through roomAt, so these pin the room
// lookup's lowest-ID rule on the four sample venues: any change to which
// room a sampled point resolves to changes a hash.
var normalPins = map[string][9]uint64{
	"MC": {0x1a02928b1b65f344, 0xc7a7f70d5d0d5558, 0x4cd337861b0532f8,
		0xa5bd036651202245, 0xb26898f384da5467, 0x1eca16aa4ad0029b,
		0x125454fc7eb89c02, 0xdd418a3936396460, 0xc57e582c9a331bfa},
	"CH": {0x0d3210afc4edfbaa, 0x52edf176c9c210ff, 0xeb9c1d211a247cba,
		0xade017c5603a3530, 0xeb4f2bd1eff24683, 0xa8da6bb2ce9c8b94,
		0xccf7cf9c370943f8, 0xf46cd5791f4210ea, 0xd32081d85f826752},
	"CPH": {0xc3fdf8bb55a4bc37, 0xa78b1e758dffc215, 0xdc3213a6b871ffe6,
		0xfff02d20fbb65b38, 0xbc38858751c87bfe, 0x3bdc5118f43035ac,
		0x4ca70ae22641b296, 0xf71e4de6b65fc2be, 0x949506e8a12be4cd},
	"MZB": {0x90534dfe1d4abd91, 0x493820a06f37db59, 0xa5473a9e267da095,
		0x3b70b889d81c2a0d, 0x8f24b6bfb9673d8f, 0xcd0141f2de89fca6,
		0x4f26e86b3857e0b2, 0x3b260b7b10784e08, 0x258b64e4c08711e0},
}

var (
	normalPinSeeds  = []int64{1, 2, 3}
	normalPinSigmas = []float64{0.1, 0.25, 0.5}
)

// hashClients folds every client's ID, partition and exact coordinate bits
// into one FNV-64a hash.
func hashClients(cs []core.Client) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, c := range cs {
		put(uint64(c.ID))
		put(uint64(c.Part))
		put(math.Float64bits(c.Loc.X))
		put(math.Float64bits(c.Loc.Y))
		put(uint64(c.Loc.Level))
	}
	return h.Sum64()
}

// TestNormalClientsPinned checks that seeded Normal workloads on the four
// sample venues are bit-identical to the recorded hashes.
func TestNormalClientsPinned(t *testing.T) {
	for _, name := range venues.Names {
		v, err := venues.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(v)
		want := normalPins[name]
		var got [9]uint64
		for i, seed := range normalPinSeeds {
			for j, sigma := range normalPinSigmas {
				cs, err := g.Clients(500, Normal, sigma, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				got[i*len(normalPinSigmas)+j] = hashClients(cs)
			}
		}
		if got != want {
			t.Errorf("%s: Normal client hashes\n got %#x\nwant %#x", name, got, want)
		}
	}
}

// TestRoomAtCorridor3 pins the room lookup on the three-room corridor:
// corridors are never rooms, and shared walls resolve to the lowest room ID.
func TestRoomAtCorridor3(t *testing.T) {
	v := testvenue.Corridor3() // 0 = corridor, 1..3 = R0..R2
	g := NewGenerator(v)
	for _, tc := range []struct {
		pt   geom.Point
		want indoor.PartitionID
	}{
		{geom.Pt(15, 2, 0), indoor.NoPartition}, // corridor interior
		{geom.Pt(5, 10, 0), 1},                  // R0 interior
		{geom.Pt(25, 10, 0), 3},                 // R2 interior
		{geom.Pt(5, 5, 0), 1},                   // R0's door on the corridor wall
		{geom.Pt(10, 10, 0), 1},                 // wall shared by R0 and R1
		{geom.Pt(20, 15, 0), 2},                 // corner shared by R1 and R2
		{geom.Pt(5, 10, 1), indoor.NoPartition}, // no level 1
		{geom.Pt(35, 10, 0), indoor.NoPartition},
	} {
		if got := g.roomAt(tc.pt); got != tc.want {
			t.Errorf("roomAt(%v) = %d, want %d", tc.pt, got, tc.want)
		}
	}
}
