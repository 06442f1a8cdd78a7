package prtree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Insert adds one tuple using the classic Guttman algorithm (least-area-
// enlargement descent, quadratic split) while keeping the probabilistic
// aggregates fresh along the insertion path. The tuple's coordinates are
// copied into the tree; tu is not retained. It panics if tu's
// dimensionality is not the tree's.
func (t *Tree) Insert(tu uncertain.Tuple) {
	if len(tu.Point) != t.dims {
		panic(fmt.Sprintf("prtree: insert of a %d-d point into a %d-d tree", len(tu.Point), t.dims))
	}
	t.insertRoot(tu.Point, tu.ID, tu.Prob)
	t.size++
}

// insertRoot inserts one tuple at the root, growing the tree by a level
// when the root splits.
func (t *Tree) insertRoot(p []float64, id uncertain.TupleID, prob float64) {
	if split := t.insert(t.root, p, id, prob); split != nil {
		old := t.root
		t.root = &node{}
		t.root.appendChild(old, t.dims)
		t.root.appendChild(split, t.dims)
	}
}

// insert places the tuple under n and returns a new sibling node when n
// overflowed and split; the caller is responsible for wiring the sibling
// in.
func (t *Tree) insert(n *node, p []float64, id uncertain.TupleID, prob float64) *node {
	if n.leaf {
		n.appendTuple(p, id, prob)
		if n.len() > t.max {
			return t.splitNode(n)
		}
		return nil
	}
	best := t.chooseSubtree(n, p)
	split := t.insert(n.children[best], p, id, prob)
	n.refresh(best, t.dims)
	if split != nil {
		n.appendChild(split, t.dims)
		if n.len() > t.max {
			return t.splitNode(n)
		}
	}
	return nil
}

// chooseSubtree picks the child whose rectangle needs least enlargement to
// absorb p, breaking ties by smaller area.
func (t *Tree) chooseSubtree(n *node, p []float64) int {
	pt := geom.Rect{Lo: p, Hi: p}
	best := 0
	bestGrow := n.rect(0, t.dims).Enlargement(pt)
	bestArea := n.rect(0, t.dims).Area()
	for i := 1; i < n.len(); i++ {
		r := n.rect(i, t.dims)
		grow := r.Enlargement(pt)
		area := r.Area()
		if grow < bestGrow || (grow == bestGrow && area < bestArea) {
			best, bestGrow, bestArea = i, grow, area
		}
	}
	return best
}

// splitNode divides an overflowing node in place using Guttman's quadratic
// split and returns the newly created sibling.
func (t *Tree) splitNode(n *node) *node {
	d := t.dims
	seedA, seedB := t.pickSeeds(n)
	groupA := []int{seedA}
	groupB := []int{seedB}
	rectA := n.rect(seedA, d).Clone()
	rectB := n.rect(seedB, d).Clone()

	rest := make([]int, 0, n.len()-2)
	for i := 0; i < n.len(); i++ {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}

	for len(rest) > 0 {
		// Force assignment when one group must take everything left to
		// reach minimum fill.
		if len(groupA)+len(rest) == t.min {
			groupA = append(groupA, rest...)
			break
		}
		if len(groupB)+len(rest) == t.min {
			groupB = append(groupB, rest...)
			break
		}
		// pickNext: the entry with the strongest preference.
		bestIdx, bestDiff := 0, -1.0
		for k, e := range rest {
			r := n.rect(e, d)
			diff := rectA.Enlargement(r) - rectB.Enlargement(r)
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = k, diff
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]

		r := n.rect(e, d)
		dA := rectA.Enlargement(r)
		dB := rectB.Enlargement(r)
		switch {
		case dA < dB:
			groupA = append(groupA, e)
			expand(rectA, r)
		case dB < dA:
			groupB = append(groupB, e)
			expand(rectB, r)
		case len(groupA) <= len(groupB):
			groupA = append(groupA, e)
			expand(rectA, r)
		default:
			groupB = append(groupB, e)
			expand(rectB, r)
		}
	}

	a, b := &node{leaf: n.leaf}, &node{leaf: n.leaf}
	for _, i := range groupA {
		a.appendEntry(n, i, d)
	}
	for _, i := range groupB {
		b.appendEntry(n, i, d)
	}
	*n = *a
	return b
}

// expand grows r in place to cover o.
func expand(r, o geom.Rect) {
	for i := range r.Lo {
		r.Lo[i] = min(r.Lo[i], o.Lo[i])
		r.Hi[i] = max(r.Hi[i], o.Hi[i])
	}
}

// pickSeeds returns the pair of entries whose combined rectangle wastes the
// most area, the quadratic-split seed heuristic.
func (t *Tree) pickSeeds(n *node) (int, int) {
	seedA, seedB, worst := 0, 1, -1.0
	for i := 0; i < n.len(); i++ {
		a := n.rect(i, t.dims)
		for j := i + 1; j < n.len(); j++ {
			// area(a ∪ b) − area(a) − area(b), evaluated left to right.
			b := n.rect(j, t.dims)
			if waste := a.Enlargement(b) - b.Area(); waste > worst {
				seedA, seedB, worst = i, j, waste
			}
		}
	}
	return seedA, seedB
}
