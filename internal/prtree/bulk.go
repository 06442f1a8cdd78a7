package prtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/uncertain"
)

// Bulk builds a PR-tree over db with Sort-Tile-Recursive packing, the
// standard way to load a large static partition before querying begins.
// Coordinates are copied into the tree's rows; db is not retained.
// capacity < 4 selects DefaultCapacity. Like Insert, it panics on a tuple
// whose dimensionality is not dims.
func Bulk(db uncertain.DB, dims, capacity int) *Tree {
	t := New(dims, capacity)
	if len(db) == 0 {
		return t
	}
	for _, tu := range db {
		if len(tu.Point) != dims {
			panic(fmt.Sprintf("prtree: bulk load of a %d-d point into a %d-d tree", len(tu.Point), dims))
		}
	}
	order := make([]int, len(db))
	for i := range order {
		order[i] = i
	}
	strSort(db, order, 0, dims, t.max)

	// Pack leaf nodes, then repeatedly pack the level above until one node
	// remains.
	nodes := packLeaves(db, order, dims, t.max)
	for len(nodes) > 1 {
		nodes = packInterior(nodes, dims, t.max)
	}
	t.root = nodes[0]
	t.size = len(db)
	return t
}

// strSort orders tuple indices with the STR tiling recursion: sort by
// dimension dim, slice into vertical slabs sized so each slab fills whole
// nodes, then recurse on the next dimension within each slab.
func strSort(db uncertain.DB, order []int, dim, dims, capacity int) {
	sort.Slice(order, func(i, j int) bool {
		return db[order[i]].Point[dim] < db[order[j]].Point[dim]
	})
	if dim >= dims-1 || len(order) <= capacity {
		return
	}
	nLeaves := int(math.Ceil(float64(len(order)) / float64(capacity)))
	remDims := float64(dims - dim)
	slabCount := int(math.Ceil(math.Pow(float64(nLeaves), 1/remDims)))
	if slabCount < 1 {
		slabCount = 1
	}
	slabSize := int(math.Ceil(float64(len(order)) / float64(slabCount)))
	if slabSize < 1 {
		slabSize = 1
	}
	for lo := 0; lo < len(order); lo += slabSize {
		hi := min(lo+slabSize, len(order))
		strSort(db, order[lo:hi], dim+1, dims, capacity)
	}
}

// nodeSizes splits n consecutive entries into nodes of up to capacity
// entries, spreading the counts evenly so no node violates the minimum
// fill (except a lone root, which is exempt).
func nodeSizes(n, capacity int) []int {
	count := max(1, (n+capacity-1)/capacity)
	sizes := make([]int, count)
	for i := range sizes {
		sizes[i] = n / count
		if i < n%count {
			sizes[i]++
		}
	}
	return sizes
}

// packLeaves writes the tuples in order into one backing array per column
// and cuts it into leaves. Each leaf's slices are capped at its own
// window, so an Insert that grows one leaf reallocates that leaf alone.
func packLeaves(db uncertain.DB, order []int, d, capacity int) []*node {
	lo := make([]float64, 0, len(order)*d)
	ids := make([]uncertain.TupleID, 0, len(order))
	prob := make([]float64, 0, len(order))
	for _, k := range order {
		lo = append(lo, db[k].Point...)
		ids = append(ids, db[k].ID)
		prob = append(prob, db[k].Prob)
	}
	var nodes []*node
	at := 0
	for _, size := range nodeSizes(len(order), capacity) {
		end := at + size
		nodes = append(nodes, &node{
			leaf: true,
			lo:   lo[at*d : end*d : end*d],
			ids:  ids[at:end:end],
			prob: prob[at:end:end],
		})
		at = end
	}
	return nodes
}

// packInterior builds the level above children, which are grouped in
// order.
func packInterior(children []*node, d, capacity int) []*node {
	var nodes []*node
	at := 0
	for _, size := range nodeSizes(len(children), capacity) {
		nd := &node{}
		for _, c := range children[at : at+size] {
			nd.appendChild(c, d)
		}
		nodes = append(nodes, nd)
		at += size
	}
	return nodes
}
