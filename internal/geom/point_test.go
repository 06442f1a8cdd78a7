package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want bool
	}{
		{"strictly smaller everywhere", Point{1, 1}, Point{2, 2}, true},
		{"equal one dim smaller other", Point{1, 2}, Point{1, 3}, true},
		{"identical points", Point{1, 2}, Point{1, 2}, false},
		{"incomparable", Point{1, 3}, Point{2, 1}, false},
		{"larger everywhere", Point{5, 5}, Point{1, 1}, false},
		{"mixed equal and larger", Point{1, 4}, Point{1, 3}, false},
		{"dimension mismatch", Point{1, 1}, Point{2, 2, 2}, false},
		{"empty points", Point{}, Point{}, false},
		{"1-d strict", Point{0}, Point{1}, true},
		{"1-d equal", Point{1}, Point{1}, false},
		{"negative coordinates", Point{-2, -2}, Point{-1, -1}, true},
		{"5-d single strict dim", Point{1, 1, 1, 1, 0}, Point{1, 1, 1, 1, 1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Dominates(tc.b); got != tc.want {
				t.Errorf("%v.Dominates(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestDominatesIn(t *testing.T) {
	a := Point{1, 9, 1}
	b := Point{2, 2, 2}
	if a.Dominates(b) {
		t.Fatal("a should not dominate b in full space")
	}
	if !a.DominatesIn(b, []int{0, 2}) {
		t.Error("a should dominate b in subspace {0,2}")
	}
	if a.DominatesIn(b, []int{1}) {
		t.Error("a should not dominate b in subspace {1}")
	}
	if a.DominatesIn(b, []int{}) {
		t.Error("empty subspace should yield no domination")
	}
	if a.DominatesIn(b, []int{5}) {
		t.Error("out-of-range subspace must fail closed")
	}
	if a.DominatesIn(b, []int{-1}) {
		t.Error("negative subspace index must fail closed")
	}
	if !a.DominatesIn(b, nil) == a.Dominates(b) {
		t.Error("nil dims must match full-space Dominates")
	}
	// Equality on all selected dims is not domination.
	if a.DominatesIn(Point{1, 0, 1}, []int{0, 2}) {
		t.Error("equal projection must not dominate")
	}
}

func TestDominatesOrEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		dims []int
		want bool
	}{
		{"equal full", Point{1, 2}, Point{1, 2}, nil, true},
		{"dominating full", Point{0, 0}, Point{1, 2}, nil, true},
		{"larger on one dim", Point{0, 3}, Point{1, 2}, nil, false},
		{"subspace equal", Point{1, 9}, Point{1, 2}, []int{0}, true},
		{"subspace larger", Point{2, 0}, Point{1, 2}, []int{0}, false},
		{"empty dims", Point{0, 0}, Point{1, 1}, []int{}, false},
		{"dim mismatch", Point{0}, Point{1, 1}, nil, false},
		{"empty points", Point{}, Point{}, nil, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.DominatesOrEqual(tc.b, tc.dims); got != tc.want {
				t.Errorf("DominatesOrEqual = %v, want %v", got, tc.want)
			}
		})
	}
}

func randomPoint(r *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = float64(r.Intn(8)) // small domain to force ties
	}
	return p
}

// Dominance must be irreflexive, asymmetric, and transitive.
func TestDominanceIsStrictPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		d := 1 + r.Intn(5)
		a, b, c := randomPoint(r, d), randomPoint(r, d), randomPoint(r, d)
		if a.Dominates(a) {
			t.Fatalf("irreflexivity violated: %v", a)
		}
		if a.Dominates(b) && b.Dominates(a) {
			t.Fatalf("asymmetry violated: %v, %v", a, b)
		}
		if a.Dominates(b) && b.Dominates(c) && !a.Dominates(c) {
			t.Fatalf("transitivity violated: %v ≺ %v ≺ %v", a, b, c)
		}
	}
}

func TestDominatesMatchesBruteForceDefinition(t *testing.T) {
	brute := func(a, b Point) bool {
		if len(a) != len(b) || len(a) == 0 {
			return false
		}
		le, lt := true, false
		for i := range a {
			le = le && a[i] <= b[i]
			lt = lt || a[i] < b[i]
		}
		return le && lt
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		d := 1 + r.Intn(4)
		a, b := randomPoint(r, d), randomPoint(r, d)
		if got, want := a.Dominates(b), brute(a, b); got != want {
			t.Fatalf("Dominates(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestSubspaceDominanceMatchesProjection(t *testing.T) {
	// Dominance in subspace dims must equal full-space dominance of the
	// projected points.
	f := func(ax, ay, az, bx, by, bz uint8, pick uint8) bool {
		a := Point{float64(ax % 6), float64(ay % 6), float64(az % 6)}
		b := Point{float64(bx % 6), float64(by % 6), float64(bz % 6)}
		var dims []int
		for j := 0; j < 3; j++ {
			if pick&(1<<j) != 0 {
				dims = append(dims, j)
			}
		}
		if len(dims) == 0 {
			return !a.DominatesIn(b, []int{})
		}
		proj := func(p Point) Point {
			out := make(Point, 0, len(dims))
			for _, j := range dims {
				out = append(out, p[j])
			}
			return out
		}
		return a.DominatesIn(b, dims) == proj(a).Dominates(proj(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2, 3}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone must not alias the original")
	}
	if Point(nil).Clone() != nil {
		t.Error("nil Clone must stay nil")
	}
}

func TestEqual(t *testing.T) {
	if !(Point{1, 2}).Equal(Point{1, 2}) {
		t.Error("identical points must be equal")
	}
	if (Point{1, 2}).Equal(Point{1, 3}) {
		t.Error("different points must not be equal")
	}
	if (Point{1, 2}).Equal(Point{1, 2, 3}) {
		t.Error("points of different dimensionality must not be equal")
	}
	if !(Point{}).Equal(Point{}) {
		t.Error("empty points are equal")
	}
}

func TestL1(t *testing.T) {
	if got := (Point{1, 2, 3}).L1(); got != 6 {
		t.Errorf("L1 = %v, want 6", got)
	}
	if got := (Point{1, 2, 3}).L1In([]int{0, 2}); got != 4 {
		t.Errorf("L1In = %v, want 4", got)
	}
	if got := (Point{1, 2, 3}).L1In(nil); got != 6 {
		t.Errorf("L1In(nil) = %v, want 6", got)
	}
	if got := (Point{1, 2}).L1In([]int{7}); got != 0 {
		t.Errorf("L1In out-of-range = %v, want 0", got)
	}
}

func TestValidDims(t *testing.T) {
	tests := []struct {
		name string
		dims []int
		d    int
		want bool
	}{
		{"nil is full space", nil, 3, true},
		{"empty invalid", []int{}, 3, false},
		{"single ok", []int{1}, 3, true},
		{"all ok", []int{0, 1, 2}, 3, true},
		{"out of range", []int{3}, 3, false},
		{"negative", []int{-1}, 3, false},
		{"duplicate", []int{1, 1}, 3, false},
		{"too many", []int{0, 1, 2, 0}, 3, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := ValidDims(tc.dims, tc.d); got != tc.want {
				t.Errorf("ValidDims(%v, %d) = %v, want %v", tc.dims, tc.d, got, tc.want)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	a, b := Point{1, 5}, Point{3, 2}
	if got := Min(a, b); !got.Equal(Point{1, 2}) {
		t.Errorf("Min = %v", got)
	}
	if got := Max(a, b); !got.Equal(Point{3, 5}) {
		t.Errorf("Max = %v", got)
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
	if got := (Point{}).String(); got != "()" {
		t.Errorf("String = %q", got)
	}
}

// Dominance over rows must agree with the Point methods on every valid
// mask: le with DominatesOrEqual, le && lt with DominatesIn.
func TestDominanceMatchesPointMethods(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5000; trial++ {
		d := 1 + r.Intn(4)
		a, b := randomPoint(r, d), randomPoint(r, d)
		if r.Intn(3) == 0 {
			b[r.Intn(d)] = a[r.Intn(d)] // force some ties
		}
		var dims []int
		if r.Intn(2) == 0 {
			dims = r.Perm(d)[:1+r.Intn(d)]
		}
		le, lt := Dominance(a, b, dims)
		if le != a.DominatesOrEqual(b, dims) || (le && lt) != a.DominatesIn(b, dims) {
			t.Fatalf("Dominance(%v, %v, %v) = %v, %v; DominatesOrEqual %v, DominatesIn %v",
				a, b, dims, le, lt, a.DominatesOrEqual(b, dims), a.DominatesIn(b, dims))
		}
	}
	// A longer b is read only up to len(a) in the full space.
	if le, lt := Dominance([]float64{1, 2}, []float64{1, 3, -9}, nil); !le || !lt {
		t.Fatalf("prefix comparison = %v, %v, want true, true", le, lt)
	}
}
