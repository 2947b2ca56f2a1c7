// Package geom provides the planar and multi-level geometry primitives used
// by the indoor space model: points, axis-aligned rectangles, and the
// distance functions the indoor distance computations are built on.
//
// All coordinates are in meters. Indoor venues span multiple levels; a Point
// carries a Level so that primitives on different floors never accidentally
// compare as near. Within one level movement is planar, so all distance
// functions are 2D; vertical movement costs are modeled by the indoor layer
// (stair doors), not by geometry.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on a single level of an indoor venue.
type Point struct {
	X, Y  float64
	Level int
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64, level int) Point { return Point{X: x, Y: y, Level: level} }

// Dist returns the Euclidean distance to q. Points on different levels have
// no direct geometric distance; Dist panics in that case because every
// caller is expected to route cross-level measurements through stair doors.
func (p Point) Dist(q Point) float64 {
	if p.Level != q.Level {
		panic(fmt.Sprintf("geom: distance between points on different levels (%d vs %d)", p.Level, q.Level))
	}
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared planar distance to q, ignoring levels. It is a
// cheap comparison key for same-level candidates.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{X: p.X + dx, Y: p.Y + dy, Level: p.Level} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f, L%d)", p.X, p.Y, p.Level) }

// Rect is an axis-aligned rectangle on a single level. Min is the lower-left
// corner and Max the upper-right; a valid Rect has Min.X <= Max.X and
// Min.Y <= Max.Y and Min.Level == Max.Level.
type Rect struct {
	Min, Max Point
}

// R constructs a Rect from corner coordinates on a level.
func R(x0, y0, x1, y1 float64, level int) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Pt(x0, y0, level), Max: Pt(x1, y1, level)}
}

// Level returns the level the rectangle lies on.
func (r Rect) Level() int { return r.Min.Level }

// Width returns the x extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the y extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2, r.Min.Level)
}

// Contains reports whether p lies inside or on the boundary of r.
// Points on other levels are never contained.
func (r Rect) Contains(p Point) bool {
	return p.Level == r.Min.Level &&
		p.X >= r.Min.X && p.X <= r.Max.X &&
		p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// OnBoundary reports whether p lies on the boundary of r within eps.
func (r Rect) OnBoundary(p Point, eps float64) bool {
	if p.Level != r.Min.Level {
		return false
	}
	inX := p.X >= r.Min.X-eps && p.X <= r.Max.X+eps
	inY := p.Y >= r.Min.Y-eps && p.Y <= r.Max.Y+eps
	onV := (math.Abs(p.X-r.Min.X) <= eps || math.Abs(p.X-r.Max.X) <= eps) && inY
	onH := (math.Abs(p.Y-r.Min.Y) <= eps || math.Abs(p.Y-r.Max.Y) <= eps) && inX
	return onV || onH
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f - %.2f,%.2f L%d]", r.Min.X, r.Min.Y, r.Max.X, r.Max.Y, r.Min.Level)
}
