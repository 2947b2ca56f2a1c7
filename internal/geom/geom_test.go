package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return a == b || math.Abs(a-b) < 1e-9 }

// norm maps an arbitrary quick-generated float into a sane coordinate range
// so distance computations stay finite.
func norm(x float64) float64 { return math.Mod(x, 1e6) }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2, 0), Pt(1, 2, 0), 0},
		{"unit x", Pt(0, 0, 0), Pt(1, 0, 0), 1},
		{"unit y", Pt(0, 0, 0), Pt(0, 1, 0), 1},
		{"3-4-5", Pt(0, 0, 0), Pt(3, 4, 0), 5},
		{"negative coords", Pt(-3, -4, 2), Pt(0, 0, 2), 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); !almostEq(got, tc.want) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestPointDistCrossLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-level distance")
		}
	}()
	Pt(0, 0, 0).Dist(Pt(0, 0, 1))
}

func TestPointDistProperties(t *testing.T) {
	symmetric := func(ax, ay, bx, by float64) bool {
		p, q := Pt(norm(ax), norm(ay), 0), Pt(norm(bx), norm(by), 0)
		return almostEq(p.Dist(q), q.Dist(p))
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay, 0), Pt(bx, by, 0), Pt(cx, cy, 0)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
	nonneg := func(ax, ay, bx, by float64) bool {
		return Pt(ax, ay, 0).Dist(Pt(bx, by, 0)) >= 0
	}
	if err := quick.Check(nonneg, nil); err != nil {
		t.Errorf("non-negativity: %v", err)
	}
}

func TestDistSqConsistentWithDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Pt(ax, ay, 0), Pt(bx, by, 0)
		d := p.Dist(q)
		return almostEq(p.DistSq(q), d*d) || math.IsInf(d*d, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(5, 7, 1, 2, 3)
	if r.Min.X != 1 || r.Min.Y != 2 || r.Max.X != 5 || r.Max.Y != 7 {
		t.Errorf("R did not normalize corners: %v", r)
	}
	if r.Level() != 3 {
		t.Errorf("Level() = %d, want 3", r.Level())
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 4, 3, 0)
	if !almostEq(r.Width(), 4) || !almostEq(r.Height(), 3) {
		t.Errorf("width/height = %v/%v", r.Width(), r.Height())
	}
	if c := r.Center(); !almostEq(c.X, 2) || !almostEq(c.Y, 1.5) {
		t.Errorf("Center = %v", c)
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 10, 1)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5, 1), true},
		{Pt(0, 0, 1), true},   // corner counts
		{Pt(10, 10, 1), true}, // corner counts
		{Pt(10.001, 5, 1), false},
		{Pt(5, 5, 0), false}, // wrong level
		{Pt(-1, 5, 1), false},
	}
	for _, tc := range tests {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectOnBoundary(t *testing.T) {
	r := R(0, 0, 10, 10, 0)
	if !r.OnBoundary(Pt(0, 5, 0), 1e-9) {
		t.Error("left edge point should be on boundary")
	}
	if !r.OnBoundary(Pt(10, 10, 0), 1e-9) {
		t.Error("corner should be on boundary")
	}
	if !r.OnBoundary(Pt(3, 0, 0), 1e-9) {
		t.Error("bottom edge point should be on boundary")
	}
	if r.OnBoundary(Pt(5, 5, 0), 1e-9) {
		t.Error("interior point should not be on boundary")
	}
	if r.OnBoundary(Pt(0, 5, 1), 1e-9) {
		t.Error("cross-level point should not be on boundary")
	}
}

func TestPointAdd(t *testing.T) {
	p := Pt(1, 2, 3).Add(4, -1)
	if p.X != 5 || p.Y != 1 || p.Level != 3 {
		t.Errorf("Add = %v", p)
	}
}
