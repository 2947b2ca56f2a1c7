package indoor

import (
	"fmt"
	"math"

	"github.com/indoorspatial/ifls/internal/geom"
)

// PartitionID identifies a partition within a venue. IDs are dense indexes
// into Venue.Partitions.
type PartitionID int32

// DoorID identifies a door within a venue. IDs are dense indexes into
// Venue.Doors.
type DoorID int32

// NoPartition marks the absence of a partition (e.g. the exterior side of an
// entrance door).
const NoPartition PartitionID = -1

// NoDoor marks the absence of a door (e.g. a door dropped from a temporal
// snapshot because its schedule closed it).
const NoDoor DoorID = -1

// Kind classifies a partition by its role in the venue.
type Kind uint8

const (
	// Room is an ordinary partition: a shop, office, ward, or hall.
	Room Kind = iota
	// Corridor is a hallway partition. Topologically identical to a room;
	// the distinction matters to venue generators and workloads (clients
	// and facilities are placed in rooms, movement happens in corridors).
	Corridor
	// Stair is a vertical connector whose doors lie on different levels.
	Stair
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Room:
		return "room"
	case Corridor:
		return "corridor"
	case Stair:
		return "stair"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Partition is a single indoor space unit.
type Partition struct {
	ID   PartitionID
	Rect geom.Rect
	Kind Kind
	// Name is a human-readable label ("Shop 12", "Corridor L3-a").
	Name string
	// Category labels a room for the real-setting experiments
	// ("dining & entertainment", "fashion & accessories", ...). Empty for
	// corridors, stairs, and synthetic-setting venues.
	Category string
	// StairLength is the traversal cost of a Stair partition between its
	// doors on different levels. Zero for non-stair partitions.
	StairLength float64
	// Doors lists the doors on this partition's boundary.
	Doors []DoorID
}

// Level returns the level the partition lies on (the lower level for stairs).
func (p *Partition) Level() int { return p.Rect.Level() }

// Door connects at most two partitions at a point location.
type Door struct {
	ID  DoorID
	Loc geom.Point
	// A and B are the partitions the door joins. B is NoPartition for
	// entrance doors that lead outside the venue.
	A, B PartitionID
}

// Other returns the partition on the far side of the door from p, or
// NoPartition if the door does not border p.
func (d *Door) Other(p PartitionID) PartitionID {
	switch p {
	case d.A:
		return d.B
	case d.B:
		return d.A
	default:
		return NoPartition
	}
}

// Borders reports whether the door lies on partition p's boundary.
func (d *Door) Borders(p PartitionID) bool { return d.A == p || d.B == p }

// Venue is a complete indoor space. Construct one with a Builder; a Venue
// returned by Builder.Build is immutable and safe for concurrent reads.
type Venue struct {
	// Name labels the venue ("Melbourne Central").
	Name       string
	Partitions []Partition
	Doors      []Door
	// Levels is the number of levels, numbered 0..Levels-1.
	Levels int
}

// Partition returns the partition with the given ID.
func (v *Venue) Partition(id PartitionID) *Partition { return &v.Partitions[id] }

// Door returns the door with the given ID.
func (v *Venue) Door(id DoorID) *Door { return &v.Doors[id] }

// NumPartitions returns the number of partitions.
func (v *Venue) NumPartitions() int { return len(v.Partitions) }

// NumDoors returns the number of doors.
func (v *Venue) NumDoors() int { return len(v.Doors) }

// doorLocIn returns the coordinates a door occupies from the perspective of
// partition p. For ordinary doors this is the door's location. For the doors
// of a stair partition, the location is still the door's own point; the
// vertical cost is charged by IntraDoorDist when the two doors are on
// different levels.
func (v *Venue) doorLocIn(d *Door, p *Partition) geom.Point { return d.Loc }

// IntraDoorDist returns the distance between two doors of partition p,
// traveling only inside p. Both doors must border p.
func (v *Venue) IntraDoorDist(pid PartitionID, a, b DoorID) float64 {
	if a == b {
		return 0
	}
	p := v.Partition(pid)
	da, db := v.Door(a), v.Door(b)
	la, lb := v.doorLocIn(da, p), v.doorLocIn(db, p)
	if la.Level != lb.Level {
		// Only stair partitions have doors on different levels.
		return p.StairLength
	}
	d := la.Dist(lb)
	if p.Kind == Stair && p.StairLength > d {
		// Within a stairwell the walkable path winds around the flight,
		// so the straight-line distance underestimates; use the stair
		// length as the floor cost between any two of its doors.
		return p.StairLength
	}
	return d
}

// PointDoorDist returns the distance from a point inside partition pid to a
// door of pid, traveling only inside the partition.
func (v *Venue) PointDoorDist(pid PartitionID, pt geom.Point, d DoorID) float64 {
	p := v.Partition(pid)
	loc := v.doorLocIn(v.Door(d), p)
	if pt.Level != loc.Level {
		return p.StairLength
	}
	return pt.Dist(loc)
}

// IntraPointDist returns the distance between two points inside the same
// partition (free movement, so Euclidean).
func (v *Venue) IntraPointDist(pid PartitionID, a, b geom.Point) float64 {
	if a.Level != b.Level {
		return v.Partition(pid).StairLength
	}
	return a.Dist(b)
}

// PartitionAt returns the partition containing pt, boundary inclusive, on
// pt's level, or NoPartition. When boundaries overlap (a door sits on two
// partitions' shared wall), the lowest-ID partition wins. It is a linear
// scan, the repository's only point locator: IFLS clients arrive with their
// partition, so point location serves only the public point API and the
// workload generator.
func (v *Venue) PartitionAt(pt geom.Point) PartitionID {
	for i := range v.Partitions {
		if v.Partitions[i].Rect.Contains(pt) {
			return PartitionID(i)
		}
	}
	return NoPartition
}

// AdjacentPartitions returns the IDs of partitions sharing a door with pid,
// without duplicates, in door order.
func (v *Venue) AdjacentPartitions(pid PartitionID) []PartitionID {
	p := v.Partition(pid)
	seen := make(map[PartitionID]bool, len(p.Doors))
	out := make([]PartitionID, 0, len(p.Doors))
	for _, did := range p.Doors {
		o := v.Door(did).Other(pid)
		if o != NoPartition && !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// DoorsBetween returns the doors directly connecting partitions a and b.
func (v *Venue) DoorsBetween(a, b PartitionID) []DoorID {
	var out []DoorID
	for _, did := range v.Partition(a).Doors {
		if v.Door(did).Other(a) == b {
			out = append(out, did)
		}
	}
	return out
}

// Stats summarizes a venue.
type Stats struct {
	Partitions int
	Rooms      int
	Corridors  int
	Stairs     int
	Doors      int
	Levels     int
	// Diameter is the planar extent of the largest level's bounding box.
	ExtentX, ExtentY float64
}

// Stats computes summary statistics for the venue.
func (v *Venue) Stats() Stats {
	s := Stats{Partitions: len(v.Partitions), Doors: len(v.Doors), Levels: v.Levels}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range v.Partitions {
		p := &v.Partitions[i]
		switch p.Kind {
		case Room:
			s.Rooms++
		case Corridor:
			s.Corridors++
		case Stair:
			s.Stairs++
		}
		minX = math.Min(minX, p.Rect.Min.X)
		minY = math.Min(minY, p.Rect.Min.Y)
		maxX = math.Max(maxX, p.Rect.Max.X)
		maxY = math.Max(maxY, p.Rect.Max.Y)
	}
	if s.Partitions > 0 {
		s.ExtentX, s.ExtentY = maxX-minX, maxY-minY
	}
	return s
}

// RoomsByCategory returns the room partition IDs labeled with category.
func (v *Venue) RoomsByCategory(category string) []PartitionID {
	var out []PartitionID
	for i := range v.Partitions {
		if v.Partitions[i].Category == category {
			out = append(out, PartitionID(i))
		}
	}
	return out
}

// Rooms returns the IDs of all Room partitions.
func (v *Venue) Rooms() []PartitionID {
	var out []PartitionID
	for i := range v.Partitions {
		if v.Partitions[i].Kind == Room {
			out = append(out, PartitionID(i))
		}
	}
	return out
}
