package prtree

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// fuzzSubspaces are the masks a script's first byte picks from; every
// script also checks the full space.
var fuzzSubspaces = [][]int{{0, 1}, {0, 2}, {1, 2}, {2}, {2, 0}}

// FuzzTreeOperations drives a 3-d PR-tree with a byte-coded operation
// script (2 bits op, 6 bits value per byte). After every script it checks
// structural invariants and every query kernel — CrossSkyProb, SkyProb,
// Dominators, Dominated, DominatedCandidates and LocalSkyline — against
// linear scans over the live tuples, in the full space and in one
// subspace. Along the way it keeps tuples the tree handed out and checks
// at the end that later inserts and deletes left them unchanged: handed-out
// points must never alias the tree's rows.
func FuzzTreeOperations(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0xC4, 0x05, 0x46})
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x11, 0x22, 0x33, 0x04, 0x15, 0x26, 0x37, 0x88, 0x99, 0x48, 0x59, 0x8A, 0x0B, 0x1C, 0x2D})
	f.Add([]byte("0001\x8a")) // a delete shifts rows under a tuple handed out before it
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		sub := fuzzSubspaces[0]
		if len(script) > 0 {
			sub = fuzzSubspaces[int(script[0])%len(fuzzSubspaces)]
		}
		tr := New(3, 5)
		var live uncertain.DB
		var handed []handout
		nextID := uncertain.TupleID(1)
		for step, b := range script {
			op := b >> 6
			v := float64(b & 0x3F)
			switch {
			case op <= 1 || len(live) == 0: // insert (biased)
				tu := uncertain.Tuple{
					ID:    nextID,
					Point: geom.Point{v, float64((b * 7) & 0x3F), float64((b * 13) & 0x3F)},
					Prob:  0.1 + float64(b%9)/10,
				}
				nextID++
				in := tu.Clone()
				tr.Insert(in)
				in.Point[0] = -1 // the tree must have copied the point
				live = append(live, tu)
			case op == 2: // delete existing
				i := int(b) % len(live)
				victim := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := tr.Delete(victim.ID, victim.Point); err != nil {
					t.Fatalf("delete live tuple: %v", err)
				}
			default: // delete missing must not corrupt
				if err := tr.Delete(uncertain.TupleID(1_000_000+int(b)), geom.Point{v, v, v}); err != ErrNotFound {
					t.Fatalf("deleting missing tuple: %v", err)
				}
			}
			if step%3 == 0 && len(live) > 0 {
				handed = collectHandouts(tr, live[int(b)%len(live)].Point, sub, handed)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("invariants after script: %v", err)
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len %d, want %d", tr.Len(), len(live))
		}
		for _, h := range handed {
			if !h.got.Point.Equal(h.want.Point) || h.got.ID != h.want.ID || h.got.Prob != h.want.Prob {
				t.Fatalf("handed-out tuple changed from %v to %v", h.want, h.got)
			}
		}
		for _, dims := range [][]int{nil, sub} {
			got := tr.LocalSkyline(0.3, dims)
			want := live.Skyline(0.3, dims)
			if !uncertain.MembersEqual(got, want, 1e-9) {
				t.Fatalf("dims %v: skyline mismatch: %d vs %d", dims, len(got), len(want))
			}
			checkKernels(t, tr, live, dims)
		}
	})
}

// handout is a tuple the tree returned and a private copy taken at once.
type handout struct{ got, want uncertain.Tuple }

// collectHandouts keeps the first few tuples each visiting query hands out
// for probe p.
func collectHandouts(tr *Tree, p geom.Point, dims []int, handed []handout) []handout {
	keep := func(tu uncertain.Tuple) bool {
		handed = append(handed, handout{got: tu, want: tu.Clone()})
		return len(handed)%4 != 0
	}
	keepMember := func(m uncertain.SkylineMember) bool { return keep(m.Tuple) }
	tr.All(keep)
	tr.Search(geom.Rect{Lo: geom.Point{0, 0, 0}, Hi: p}, keep)
	tr.Dominators(p, dims, uncertain.NoTuple, keep)
	tr.Dominated(p, dims, uncertain.NoTuple, keep)
	tr.DominatedCandidates(geom.Point{0, 0, 0}, dims, uncertain.NoTuple, 0.2, keepMember)
	tr.LocalSkylineFunc(0.2, dims, keepMember)
	return handed
}

// checkKernels compares the tree's query kernels with linear scans over
// live for up to 16 stored probes and three foreign points.
func checkKernels(t *testing.T, tr *Tree, live uncertain.DB, dims []int) {
	t.Helper()
	const tol = 1e-12
	probes := live
	if len(probes) > 16 {
		probes = probes[:16]
	}
	probes = append(probes[:len(probes):len(probes)],
		uncertain.Tuple{ID: uncertain.NoTuple, Point: geom.Point{32, 32, 32}, Prob: 0.5},
		uncertain.Tuple{ID: uncertain.NoTuple, Point: geom.Point{0, 63, 20}, Prob: 1},
		uncertain.Tuple{ID: uncertain.NoTuple, Point: geom.Point{63, 63, 63}, Prob: 0.2},
	)
	ids := func(visit func(fn func(uncertain.Tuple) bool)) map[uncertain.TupleID]bool {
		out := map[uncertain.TupleID]bool{}
		visit(func(tu uncertain.Tuple) bool {
			out[tu.ID] = true
			return true
		})
		return out
	}
	sameIDs := func(what string, probe uncertain.Tuple, got map[uncertain.TupleID]bool, want func(uncertain.Tuple) bool) {
		n := 0
		for _, s := range live {
			if s.ID != probe.ID && want(s) {
				n++
				if !got[s.ID] {
					t.Fatalf("dims %v probe %v: %s misses %v", dims, probe, what, s)
				}
			}
		}
		if len(got) != n {
			t.Fatalf("dims %v probe %v: %s found %d tuples, want %d", dims, probe, what, len(got), n)
		}
	}
	for _, probe := range probes {
		if got, want := tr.CrossSkyProb(probe, dims), live.CrossSkyProb(probe, dims); math.Abs(got-want) > tol {
			t.Fatalf("dims %v probe %v: CrossSkyProb %v, scan %v", dims, probe, got, want)
		}
		if got, want := tr.SkyProb(probe, dims), live.SkyProb(probe, dims); math.Abs(got-want) > tol {
			t.Fatalf("dims %v probe %v: SkyProb %v, scan %v", dims, probe, got, want)
		}
		p := probe.Point
		sameIDs("Dominators", probe, ids(func(fn func(uncertain.Tuple) bool) { tr.Dominators(p, dims, probe.ID, fn) }),
			func(s uncertain.Tuple) bool { return s.Point.DominatesIn(p, dims) })
		sameIDs("Dominated", probe, ids(func(fn func(uncertain.Tuple) bool) { tr.Dominated(p, dims, probe.ID, fn) }),
			func(s uncertain.Tuple) bool { return p.DominatesIn(s.Point, dims) })

		const q = 0.3
		got := map[uncertain.TupleID]float64{}
		tr.DominatedCandidates(p, dims, probe.ID, q, func(m uncertain.SkylineMember) bool {
			got[m.Tuple.ID] = m.Prob
			return true
		})
		for _, s := range live {
			if s.ID == probe.ID || !p.DominatesIn(s.Point, dims) {
				if _, ok := got[s.ID]; ok {
					t.Fatalf("dims %v probe %v: DominatedCandidates reports undominated %v", dims, probe, s)
				}
				continue
			}
			want := live.SkyProb(s, dims)
			prob, ok := got[s.ID]
			switch {
			case ok && math.Abs(prob-want) > tol:
				t.Fatalf("dims %v probe %v: candidate %v prob %v, scan %v", dims, probe, s, prob, want)
			case ok && want < q-tol, !ok && want >= q+tol:
				t.Fatalf("dims %v probe %v: candidate %v reported %v with scan prob %v (q %v)", dims, probe, s, ok, want, q)
			}
		}
	}
}
