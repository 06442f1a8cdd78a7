package prtree

import (
	"repro/internal/uncertain"
)

// LocalSkyline computes the probabilistic skyline of the indexed database
// (§6.2): every tuple whose skyline probability (eq. 3) is at least q,
// sorted by descending probability. It follows the BBS discipline — a
// min-heap on the L1 distance of entry rectangles to the origin — and
// prunes a subtree as soon as its best possible skyline probability
//
//	P2(subtree) × Π_{t' ∈ D, t' ≺ rect.Lo} (1 − P(t'))
//
// drops below q. The product is evaluated with a dominance-window query on
// the tree itself, which strictly sharpens the paper's single-feedback-point
// bound while remaining sound: every tuple dominating the subtree's best
// corner dominates each tuple inside it.
func (t *Tree) LocalSkyline(q float64, dims []int) []uncertain.SkylineMember {
	var out []uncertain.SkylineMember
	t.LocalSkylineFunc(q, dims, func(m uncertain.SkylineMember) bool {
		out = append(out, m)
		return true
	})
	uncertain.SortMembers(out)
	return out
}

// LocalSkylineFunc streams qualified skyline members in BBS (ascending L1)
// order, which delivers near-origin members first; fn returning false stops
// the search. Members are NOT probability-sorted — callers wanting the
// paper's descending-probability order should collect and sort (as
// LocalSkyline does).
func (t *Tree) LocalSkylineFunc(q float64, dims []int, fn func(uncertain.SkylineMember) bool) {
	if t.size == 0 {
		return
	}
	if q <= 0 {
		// q <= 0 qualifies everything; still report exact probabilities.
		t.All(func(tu uncertain.Tuple) bool {
			return fn(uncertain.SkylineMember{Tuple: tu, Prob: t.SkyProb(tu, dims)})
		})
		return
	}

	d := t.dims
	var h entryHeap
	push := func(n *node, i int) {
		// Subtree-level threshold prune (leaf entries get the exact test).
		if !n.leaf && t.bound(n, i, dims) < q {
			return
		}
		h.push(heapItem{dist: n.rect(i, d).MinDist(dims), n: n, i: i})
	}
	for i := 0; i < t.root.len(); i++ {
		push(t.root, i)
	}
	for len(h) > 0 {
		it := h.pop()
		n, i := it.n, it.i
		if !n.leaf {
			c := n.children[i]
			for j := 0; j < c.len(); j++ {
				push(c, j)
			}
			continue
		}
		if p := n.prob[i] * t.cross(t.root, n.row(i, d), n.ids[i], dims, 1); p >= q {
			if !fn(uncertain.SkylineMember{Tuple: n.tuple(i, d), Prob: p}) {
				return
			}
		}
	}
}

// heapItem is one queued entry: entry i of node n at BBS priority dist.
type heapItem struct {
	dist float64
	n    *node
	i    int
}

// entryHeap is a binary min-heap on dist. Its sift-up and sift-down are
// container/heap's, step for step, so equal-priority entries pop in the
// same order; it is typed so that a push does not box its item.
type entryHeap []heapItem

func (h *entryHeap) push(it heapItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *entryHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].dist < s[j1].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}
