package geom

import "fmt"

// Rect is a closed axis-aligned minimum bounding rectangle [Lo, Hi]. The
// zero Rect (nil corners) is the empty rectangle; ExpandPoint grows it.
type Rect struct {
	Lo Point
	Hi Point
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// IsEmpty reports whether r covers no points.
func (r Rect) IsEmpty() bool { return len(r.Lo) == 0 }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// ExpandPoint returns the smallest rectangle covering both r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	if r.IsEmpty() {
		return RectFromPoint(p)
	}
	return Rect{Lo: Min(r.Lo, p), Hi: Max(r.Hi, p)}
}

// ExpandRect returns the smallest rectangle covering both r and other.
func (r Rect) ExpandRect(other Rect) Rect {
	if r.IsEmpty() {
		return other.Clone()
	}
	if other.IsEmpty() {
		return r.Clone()
	}
	return Rect{Lo: Min(r.Lo, other.Lo), Hi: Max(r.Hi, other.Hi)}
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	if r.IsEmpty() || len(p) != len(r.Lo) {
		return false
	}
	for i, v := range p {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether other lies entirely inside r.
func (r Rect) ContainsRect(other Rect) bool {
	if r.IsEmpty() || other.IsEmpty() || len(r.Lo) != len(other.Lo) {
		return false
	}
	for i := range r.Lo {
		if other.Lo[i] < r.Lo[i] || other.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of r. Degenerate rectangles have
// zero area.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	area := 1.0
	for i := range r.Lo {
		area *= r.Hi[i] - r.Lo[i]
	}
	return area
}

// Enlargement returns how much r's area would grow to absorb other. It
// computes the union's area in place, without building the union.
func (r Rect) Enlargement(other Rect) float64 {
	if r.IsEmpty() || other.IsEmpty() {
		return r.ExpandRect(other).Area() - r.Area()
	}
	union := 1.0
	for i := range r.Lo {
		union *= max(r.Hi[i], other.Hi[i]) - min(r.Lo[i], other.Lo[i])
	}
	return union - r.Area()
}

// MayContainDominatorOf reports whether some point inside r could dominate p
// on the compared dimensions (nil dims = full space). Because every point of
// r is componentwise >= r.Lo, a dominator of p exists in r only if r.Lo
// itself dominates-or-equals p; the test is exact for pruning purposes: when
// it returns false, r provably holds no dominator of p. It runs the row
// kernel (Dominance), so p must have r's dimensionality and dims must be
// valid for it.
func (r Rect) MayContainDominatorOf(p Point, dims []int) bool {
	if r.IsEmpty() {
		return false
	}
	// r.Lo == p exactly is the corner case: a point equal to p does not
	// dominate p, but r may extend below p on no dimension then, so only a
	// strictly-smaller corner on some compared dimension can yield a
	// dominator. Dominates-or-equals alone over-approximates only when
	// r.Lo equals p on every compared dimension; that is still a correct
	// (conservative) filter, and the per-point check downstream is exact.
	le, _ := Dominance(r.Lo, p, dims)
	return le
}

// MinDist returns the L1 distance from the origin to the nearest corner of r
// restricted to dims (nil = all); this is the BBS expansion priority.
func (r Rect) MinDist(dims []int) float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Lo.L1In(dims)
}

// String renders r as "[lo .. hi]".
func (r Rect) String() string {
	if r.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%s .. %s]", r.Lo, r.Hi)
}
