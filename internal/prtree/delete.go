package prtree

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Delete removes the tuple with the given ID located at point p. The point
// narrows the search to subtrees whose rectangle contains it, per the
// paper's §5.4 ("a local index is searched according to the traditional
// top-down approach to locate and delete the data item"). Returns
// ErrNotFound when no such tuple exists.
func (t *Tree) Delete(id uncertain.TupleID, p geom.Point) error {
	if len(p) != t.dims {
		return ErrNotFound
	}
	var orphans []*node
	if !t.remove(t.root, id, p, &orphans) {
		return ErrNotFound
	}
	t.size--
	// Shrink the root when it lost all children but one interior entry.
	for !t.root.leaf && t.root.len() == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && t.root.len() == 0 {
		t.root = &node{leaf: true}
	}
	// Reinsert the tuples of nodes orphaned by condensing, one at a time
	// in node order — the simplest correct CondenseTree variant.
	for _, orphan := range orphans {
		t.reinsert(orphan)
	}
	return nil
}

func (t *Tree) reinsert(n *node) {
	if !n.leaf {
		for _, c := range n.children {
			t.reinsert(c)
		}
		return
	}
	for i, id := range n.ids {
		t.insertRoot(n.row(i, t.dims), id, n.prob[i])
	}
}

// remove deletes the matching leaf entry under n, collecting underfull
// nodes into orphans. It reports whether a tuple was removed.
func (t *Tree) remove(n *node, id uncertain.TupleID, p geom.Point, orphans *[]*node) bool {
	d := t.dims
	if n.leaf {
		for i := range n.ids {
			if n.ids[i] == id && p.Equal(n.row(i, d)) {
				n.deleteEntry(i, d)
				return true
			}
		}
		return false
	}
	for i, c := range n.children {
		if !n.rect(i, d).ContainsPoint(p) {
			continue
		}
		if !t.remove(c, id, p, orphans) {
			continue
		}
		if c.len() < t.min {
			// Condense: orphan the whole child and drop it from n.
			*orphans = append(*orphans, c)
			n.deleteEntry(i, d)
		} else {
			n.refresh(i, d)
		}
		return true
	}
	return false
}

// Update replaces the tuple identified by id/oldPoint with the new tuple, a
// delete followed by an insert.
func (t *Tree) Update(id uncertain.TupleID, oldPoint geom.Point, tu uncertain.Tuple) error {
	if err := t.Delete(id, oldPoint); err != nil {
		return err
	}
	t.Insert(tu)
	return nil
}
