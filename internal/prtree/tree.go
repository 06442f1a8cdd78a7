// Package prtree implements the Probabilistic R-tree of the paper's §6.1: a
// dynamic R-tree over uncertain tuples whose directory entries additionally
// carry the minimum and maximum existential probability of their subtree
// (P1/P2 in the paper) plus the aggregated product Π(1−P(t)) used to
// accelerate dominance-window probability queries (§6.3) and threshold-aware
// local skyline search (§6.2, BBS-style).
//
// Nodes are stored column-wise: each holds its entries' coordinates as one
// flat row of d floats per entry, so the dominance kernel (geom.Dominance)
// walks contiguous memory and every point is stored once. Tuples handed to
// callers are fresh copies that never alias a node's rows.
package prtree

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// DefaultCapacity is the default maximum node fan-out. Forty-ish entries per
// node is the classic disk-page sizing; it also performs well in memory.
const DefaultCapacity = 32

// ErrNotFound reports a Delete for a tuple the tree does not contain.
var ErrNotFound = errors.New("prtree: tuple not found")

// Tree is a probabilistic R-tree. The zero value is not usable; construct
// with New or Bulk. Tree is not safe for concurrent mutation; concurrent
// read-only queries are safe.
//
// Queries taking a subspace mask dims require a valid one (geom.ValidDims
// for Dims()); a probe point of another dimensionality matches nothing.
type Tree struct {
	dims int
	max  int // node capacity M
	min  int // minimum fill m
	root *node
	size int
}

// node is one R-tree node in column-wise form. Entry i's coordinate row
// is lo[i*d : (i+1)*d]. In a leaf that row is the tuple's point (a point
// is its own rectangle, so a leaf has no hi rows) and ids/prob hold the
// tuple's ID and existential probability. In an interior node lo and hi
// hold the rectangle's corners, children the subtrees, and the remaining
// columns the subtree aggregates: the paper's P1/P2 (pmin/pmax), the
// Π(1−P) product and the tuple count.
type node struct {
	leaf bool
	lo   []float64

	ids  []uncertain.TupleID
	prob []float64

	hi       []float64
	children []*node
	pmin     []float64
	pmax     []float64
	prodInv  []float64
	count    []int
}

// New returns an empty PR-tree for points of dimensionality dims with node
// capacity cap (cap < 4 falls back to DefaultCapacity).
func New(dims, capacity int) *Tree {
	if capacity < 4 {
		capacity = DefaultCapacity
	}
	return &Tree{
		dims: dims,
		max:  capacity,
		min:  capacity * 2 / 5, // 40% minimum fill, the R*-tree default
		root: &node{leaf: true},
	}
}

// Dims returns the dimensionality the tree indexes.
func (t *Tree) Dims() int { return t.dims }

// Len returns the number of tuples stored.
func (t *Tree) Len() int { return t.size }

// Height returns the tree's height in levels (1 = a single leaf root).
// Leaf depth is uniform (CheckInvariants enforces it), so walking the
// first child at each level suffices.
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf || len(n.children) == 0 {
			break
		}
		n = n.children[0]
	}
	return h
}

// len returns the node's entry count.
func (n *node) len() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.children)
}

// row returns entry i's lo row (a leaf's point). The slice is capped, so
// an append to it can never spill into entry i+1.
func (n *node) row(i, d int) []float64 { return n.lo[i*d : (i+1)*d : (i+1)*d] }

// hiRow returns entry i's hi row; a leaf's point is both its corners.
func (n *node) hiRow(i, d int) []float64 {
	if n.leaf {
		return n.row(i, d)
	}
	return n.hi[i*d : (i+1)*d : (i+1)*d]
}

// rect views entry i's rectangle over the node's rows without copying.
func (n *node) rect(i, d int) geom.Rect {
	return geom.Rect{Lo: n.row(i, d), Hi: n.hiRow(i, d)}
}

// tuple returns a fresh copy of leaf entry i; it shares nothing with the
// node.
func (n *node) tuple(i, d int) uncertain.Tuple {
	return uncertain.Tuple{ID: n.ids[i], Point: geom.Point(n.row(i, d)).Clone(), Prob: n.prob[i]}
}

// agg returns entry i's aggregates; a leaf entry aggregates its one tuple.
func (n *node) agg(i int) (pmin, pmax, prodInv float64, count int) {
	if n.leaf {
		return n.prob[i], n.prob[i], 1 - n.prob[i], 1
	}
	return n.pmin[i], n.pmax[i], n.prodInv[i], n.count[i]
}

// appendTuple adds a leaf entry, copying p.
func (n *node) appendTuple(p []float64, id uncertain.TupleID, prob float64) {
	n.lo = append(n.lo, p...)
	n.ids = append(n.ids, id)
	n.prob = append(n.prob, prob)
}

// appendChild adds an interior entry for c and computes its rectangle and
// aggregates.
func (n *node) appendChild(c *node, d int) {
	n.lo = append(n.lo, make([]float64, d)...)
	n.hi = append(n.hi, make([]float64, d)...)
	n.children = append(n.children, c)
	n.pmin = append(n.pmin, 0)
	n.pmax = append(n.pmax, 0)
	n.prodInv = append(n.prodInv, 0)
	n.count = append(n.count, 0)
	n.refresh(len(n.children)-1, d)
}

// appendEntry copies entry i of src (a node of the same kind) to n.
func (n *node) appendEntry(src *node, i, d int) {
	if src.leaf {
		n.appendTuple(src.row(i, d), src.ids[i], src.prob[i])
		return
	}
	n.lo = append(n.lo, src.row(i, d)...)
	n.hi = append(n.hi, src.hiRow(i, d)...)
	n.children = append(n.children, src.children[i])
	n.pmin = append(n.pmin, src.pmin[i])
	n.pmax = append(n.pmax, src.pmax[i])
	n.prodInv = append(n.prodInv, src.prodInv[i])
	n.count = append(n.count, src.count[i])
}

// deleteEntry removes entry i, keeping the others in order.
func (n *node) deleteEntry(i, d int) {
	n.lo = append(n.lo[:i*d], n.lo[(i+1)*d:]...)
	if n.leaf {
		n.ids = append(n.ids[:i], n.ids[i+1:]...)
		n.prob = append(n.prob[:i], n.prob[i+1:]...)
		return
	}
	n.hi = append(n.hi[:i*d], n.hi[(i+1)*d:]...)
	n.children = append(n.children[:i], n.children[i+1:]...)
	n.pmin = append(n.pmin[:i], n.pmin[i+1:]...)
	n.pmax = append(n.pmax[:i], n.pmax[i+1:]...)
	n.prodInv = append(n.prodInv[:i], n.prodInv[i+1:]...)
	n.count = append(n.count[:i], n.count[i+1:]...)
}

// refresh recomputes interior entry i's rectangle and aggregates from its
// (non-empty) child, folding the child's entries in order so the Π(1−P)
// product is multiplied in the same order on every rebuild.
func (n *node) refresh(i, d int) {
	c := n.children[i]
	lo, hi := n.row(i, d), n.hiRow(i, d)
	copy(lo, c.row(0, d))
	copy(hi, c.hiRow(0, d))
	pmin, pmax, prodInv, count := 1.0, 0.0, 1.0, 0
	for j := 0; j < c.len(); j++ {
		clo, chi := c.row(j, d), c.hiRow(j, d)
		for k := range lo {
			lo[k] = min(lo[k], clo[k])
			hi[k] = max(hi[k], chi[k])
		}
		cmin, cmax, cprod, ccount := c.agg(j)
		pmin = min(pmin, cmin)
		pmax = max(pmax, cmax)
		prodInv *= cprod
		count += ccount
	}
	n.pmin[i], n.pmax[i], n.prodInv[i], n.count[i] = pmin, pmax, prodInv, count
}

// CheckInvariants validates structural invariants: column lengths agree,
// bounding rectangles and aggregates match a recomputation from the
// children (rectangles via geom.Rect, as an independent reference), leaf
// depth is uniform, and node occupancy respects capacity. It exists for
// tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return errors.New("prtree: nil root")
	}
	n, _, err := t.check(t.root, true)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("prtree: size %d but %d tuples reachable", t.size, n)
	}
	return nil
}

// check validates the subtree under n and returns its tuple count and
// depth.
func (t *Tree) check(n *node, isRoot bool) (tuples, depth int, err error) {
	d := t.dims
	size := n.len()
	if size > t.max {
		return 0, 0, fmt.Errorf("prtree: node with %d entries exceeds capacity %d", size, t.max)
	}
	if !isRoot && size < t.min {
		return 0, 0, fmt.Errorf("prtree: underfull non-root node (%d < %d)", size, t.min)
	}
	if len(n.lo) != size*d {
		return 0, 0, fmt.Errorf("prtree: %d lo coordinates for %d entries", len(n.lo), size)
	}
	if n.leaf {
		if len(n.prob) != size || n.hi != nil || n.children != nil {
			return 0, 0, errors.New("prtree: leaf columns disagree")
		}
		return size, 1, nil
	}
	if size == 0 {
		return 0, 0, errors.New("prtree: empty interior node")
	}
	if len(n.hi) != size*d || len(n.pmin) != size || len(n.pmax) != size ||
		len(n.prodInv) != size || len(n.count) != size || n.ids != nil {
		return 0, 0, errors.New("prtree: interior columns disagree")
	}
	childDepth := -1
	for i, c := range n.children {
		if c == nil {
			return 0, 0, errors.New("prtree: interior entry without child")
		}
		var fresh geom.Rect
		pmin, pmax, prodInv, count := 1.0, 0.0, 1.0, 0
		for j := 0; j < c.len(); j++ {
			if c.leaf {
				fresh = fresh.ExpandPoint(c.row(j, d))
			} else {
				fresh = fresh.ExpandRect(c.rect(j, d))
			}
			cmin, cmax, cprod, ccount := c.agg(j)
			pmin = min(pmin, cmin)
			pmax = max(pmax, cmax)
			prodInv *= cprod
			count += ccount
		}
		if have := n.rect(i, d); !fresh.Lo.Equal(have.Lo) || !fresh.Hi.Equal(have.Hi) {
			return 0, 0, fmt.Errorf("prtree: stale rect: have %v want %v", have, fresh)
		}
		if count != n.count[i] || pmin != n.pmin[i] || pmax != n.pmax[i] || prodInv != n.prodInv[i] {
			return 0, 0, fmt.Errorf("prtree: stale aggregates (count %d/%d pmin %v/%v pmax %v/%v prod %v/%v)",
				n.count[i], count, n.pmin[i], pmin, n.pmax[i], pmax, n.prodInv[i], prodInv)
		}
		sub, dep, err := t.check(c, false)
		if err != nil {
			return 0, 0, err
		}
		if sub != count {
			return 0, 0, fmt.Errorf("prtree: count %d but %d tuples below", count, sub)
		}
		tuples += sub
		if childDepth == -1 {
			childDepth = dep
		} else if childDepth != dep {
			return 0, 0, errors.New("prtree: leaves at different depths")
		}
	}
	return tuples, childDepth + 1, nil
}

// All visits every tuple in the tree in unspecified order; fn returning
// false stops the walk early.
func (t *Tree) All(fn func(uncertain.Tuple) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n.leaf {
			for i := range n.ids {
				if !fn(n.tuple(i, t.dims)) {
					return false
				}
			}
			return true
		}
		for _, c := range n.children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}
