package prtree

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Dominated visits every stored tuple that p dominates in the subspace
// dims (nil = full space), skipping the tuple with ID self. It is the
// mirror image of Dominators and powers the §5.4 incremental update
// maintenance, which must find the tuples whose skyline probability a
// deleted or inserted tuple affects.
func (t *Tree) Dominated(p geom.Point, dims []int, self uncertain.TupleID, fn func(uncertain.Tuple) bool) {
	if len(p) != t.dims {
		return
	}
	d := t.dims
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := 0; i < n.len(); i++ {
			// A subtree can contain a tuple dominated by p only if p
			// dominates-or-equals the subtree's far (upper) corner
			// projection: every stored point is <= rect.Hi componentwise,
			// so if p exceeds rect.Hi on a compared dimension, p cannot
			// dominate anything inside. For a leaf entry the corner is the
			// point itself, and the test is dominance proper.
			le, lt := geom.Dominance(p, n.hiRow(i, d), dims)
			if !le {
				continue
			}
			if n.leaf {
				if lt && n.ids[i] != self && !fn(n.tuple(i, d)) {
					return false
				}
				continue
			}
			if !walk(n.children[i]) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// DominatedCandidates visits every stored tuple s that p dominates AND
// whose own skyline probability (eq. 3 against this partition) reaches q,
// reporting each with that probability. It is the workhorse of §5.4
// deletion maintenance: after p is deleted, only such tuples can have been
// promoted into the answer. The search prunes whole subtrees with the same
// sound bound as LocalSkyline — the subtree's maximum existential
// probability times the survival product of its best corner — so the cost
// tracks the (small) number of qualified candidates rather than the (huge)
// number of dominated tuples.
func (t *Tree) DominatedCandidates(p geom.Point, dims []int, self uncertain.TupleID, q float64, fn func(uncertain.SkylineMember) bool) {
	if q <= 0 {
		// Degenerate threshold: fall back to the unpruned walk.
		t.Dominated(p, dims, self, func(tu uncertain.Tuple) bool {
			return fn(uncertain.SkylineMember{Tuple: tu, Prob: t.SkyProb(tu, dims)})
		})
		return
	}
	if len(p) != t.dims {
		return
	}
	d := t.dims
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := 0; i < n.len(); i++ {
			le, lt := geom.Dominance(p, n.hiRow(i, d), dims)
			if !le {
				continue // nothing inside can be dominated by p
			}
			if !n.leaf {
				if t.bound(n, i, dims) < q {
					continue // no tuple inside can reach the threshold
				}
				if !walk(n.children[i]) {
					return false
				}
				continue
			}
			if !lt || n.ids[i] == self || n.prob[i] < q {
				continue // n.prob[i] < q is the cheap bound P_sky <= P(t)
			}
			row := n.row(i, d)
			if prob := n.prob[i] * t.cross(t.root, row, n.ids[i], dims, 1); prob >= q {
				if !fn(uncertain.SkylineMember{Tuple: n.tuple(i, d), Prob: prob}) {
					return false
				}
			}
		}
		return true
	}
	walk(t.root)
}
