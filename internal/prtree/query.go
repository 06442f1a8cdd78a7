package prtree

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Search visits every tuple inside the query window rect (boundaries
// included); fn returning false stops the search.
func (t *Tree) Search(rect geom.Rect, fn func(uncertain.Tuple) bool) {
	d := t.dims
	if len(rect.Lo) != d || len(rect.Hi) != d {
		return
	}
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := 0; i < n.len(); i++ {
			if n.leaf {
				if rect.ContainsPoint(n.row(i, d)) && !fn(n.tuple(i, d)) {
					return false
				}
				continue
			}
			// Descend only into overlapping subtrees.
			if overlaps(n.rect(i, d), rect) && !walk(n.children[i]) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// overlaps reports whether two rectangles of one dimensionality meet.
func overlaps(a, b geom.Rect) bool {
	for i := range a.Lo {
		if a.Hi[i] < b.Lo[i] || b.Hi[i] < a.Lo[i] {
			return false
		}
	}
	return true
}

// Dominators visits every stored tuple that dominates p in the subspace
// dims (nil = full space), skipping the tuple with ID self (so a stored
// tuple can query its own dominators). This is the paper's §6.3 window
// query: the window spans from the space origin to p.
func (t *Tree) Dominators(p geom.Point, dims []int, self uncertain.TupleID, fn func(uncertain.Tuple) bool) {
	d := t.dims
	if len(p) != d {
		return
	}
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := 0; i < n.len(); i++ {
			if n.leaf {
				if n.ids[i] == self {
					continue
				}
				if le, lt := geom.Dominance(n.row(i, d), p, dims); le && lt && !fn(n.tuple(i, d)) {
					return false
				}
				continue
			}
			if n.rect(i, d).MayContainDominatorOf(p, dims) && !walk(n.children[i]) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// CrossSkyProb computes eq. 9 for an arbitrary probe tuple against the
// indexed database: Π over stored dominators of probe (excluding any stored
// tuple sharing probe's ID) of (1 − P). Subtrees that lie entirely inside
// the dominance region contribute their pre-aggregated product without
// being expanded, which is what makes the feedback evaluation at local
// sites (§6.3) sublinear in practice.
//
// The result is bit-exact for a given tree: entries are visited depth
// first in node order, and each factor — a leaf's 1 − P or a subtree's
// cached product, itself folded in node order — multiplies the running
// product in that order. Floating-point multiplication is not associative,
// so any layout or traversal change must keep this order (the golden test
// pins it).
func (t *Tree) CrossSkyProb(probe uncertain.Tuple, dims []int) float64 {
	if len(probe.Point) != t.dims {
		return 1
	}
	return t.cross(t.root, probe.Point, probe.ID, dims, 1)
}

// cross multiplies prob by the survival factor of every tuple under n
// (other than self) that dominates p, in node order.
func (t *Tree) cross(n *node, p []float64, self uncertain.TupleID, dims []int, prob float64) float64 {
	d := t.dims
	if n.leaf {
		for i, id := range n.ids {
			if id == self {
				continue
			}
			if le, lt := geom.Dominance(n.lo[i*d:(i+1)*d], p, dims); le && lt {
				prob *= 1 - n.prob[i]
			}
		}
		return prob
	}
	for i, c := range n.children {
		// The subtree may hold a dominator only if its low corner
		// dominates or equals the probe (Rect.MayContainDominatorOf,
		// inlined for this hot loop).
		if le, _ := geom.Dominance(n.lo[i*d:(i+1)*d], p, dims); !le {
			continue
		}
		// Whole-subtree shortcut: when even the far corner of the
		// subtree dominates the probe, every contained tuple does, so
		// the cached product applies (the probe itself can never be
		// inside such a subtree — nothing dominates itself).
		if le, lt := geom.Dominance(n.hi[i*d:(i+1)*d], p, dims); le && lt {
			prob *= n.prodInv[i]
			continue
		}
		prob = t.cross(c, p, self, dims, prob)
	}
	return prob
}

// SkyProb computes eq. 3 for probe against the indexed database:
// P(probe) × CrossSkyProb(probe).
func (t *Tree) SkyProb(probe uncertain.Tuple, dims []int) float64 {
	return probe.Prob * t.CrossSkyProb(probe, dims)
}

// bound is the best skyline probability any tuple under interior entry i
// of n can reach: P2 of the subtree times the survival product of its low
// corner, which every dominator of a contained tuple also dominates.
func (t *Tree) bound(n *node, i int, dims []int) float64 {
	return n.pmax[i] * t.cross(t.root, n.row(i, t.dims), uncertain.NoTuple, dims, 1)
}
