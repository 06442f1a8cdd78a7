package site

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/prtree"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// cacheModel is the test's uncached view of one session: the local
// skyline a fresh PR-tree search returned at Init, pruned by the test's
// own copy of the Observation-2 rule, and what the engine streamed.
type cacheModel struct {
	query transport.Query
	want  []uncertain.SkylineMember
	got   []uncertain.SkylineMember
	done  bool
}

func handleOK(t *testing.T, eng *Engine, req *transport.Request) *transport.Response {
	t.Helper()
	resp, err := eng.Handle(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// take records one Init/Next response in the session's stream.
func (m *cacheModel) take(resp *transport.Response) {
	if resp.Exhausted {
		m.done = true
		return
	}
	m.got = append(m.got, uncertain.SkylineMember{Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb})
}

// check compares the streamed members with the model's, bit for bit: same
// IDs, same order, P compared with ==.
func (m *cacheModel) check(t *testing.T, id uint64) {
	t.Helper()
	if len(m.got) != len(m.want) {
		t.Fatalf("session %d (q=%v dims=%v): streamed %d members, fresh search %d",
			id, m.query.Threshold, m.query.Dims, len(m.got), len(m.want))
	}
	for i := range m.got {
		g, w := m.got[i], m.want[i]
		if g.Tuple.ID != w.Tuple.ID || g.Prob != w.Prob {
			t.Fatalf("session %d (q=%v dims=%v) member %d: got id=%d P=%v, fresh search id=%d P=%v",
				id, m.query.Threshold, m.query.Dims, i, g.Tuple.ID, g.Prob, w.Tuple.ID, w.Prob)
		}
	}
}

// A seeded random interleaving of Inits (thresholds, and subspaces given
// as nil, the explicit full space and permuted 2-d sets), pruning
// feedback, inserts and deletes. Every session must stream exactly what a
// fresh PR-tree search over the site's data at Init time returns, minus
// what the Observation-2 rule prunes. The reference tree is bulk-loaded
// from the same partition and receives the same inserts and deletes, so it
// holds the same data in the same shape, but it is never cached.
func TestSkylineCacheMatchesFreshSearch(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			const d = 3
			part := randomPart(r, 300, d)
			eng := New(0, part, d, 0)
			reg := obs.NewRegistry()
			eng.Instrument(reg)
			ref := prtree.Bulk(append(uncertain.DB(nil), part...), d, 0)
			live := append(uncertain.DB(nil), part...)
			nextID := uncertain.TupleID(len(part) + 1)

			subspace := func() []int {
				switch r.Intn(3) {
				case 0:
					return nil
				case 1:
					return r.Perm(d)
				default:
					return r.Perm(d)[:2]
				}
			}
			models := map[uint64]*cacheModel{}
			var ids []uint64
			pick := func() (uint64, *cacheModel) {
				id := ids[r.Intn(len(ids))]
				return id, models[id]
			}
			pruned := 0
			for step := 0; step < 400; step++ {
				switch op := r.Intn(20); {
				case op < 3 || len(ids) == 0:
					id := uint64(len(ids) + 1)
					q := transport.Query{Threshold: 0.05 + 0.9*r.Float64(), Dims: subspace()}
					if low := ref.LocalSkyline(0.05, q.Dims); r.Intn(4) == 0 && len(low) > 0 {
						// A threshold equal to a member's probability probes
						// the inclusive end of the cached prefix.
						q.Threshold = low[r.Intn(len(low))].Prob
					}
					m := &cacheModel{query: q, want: ref.LocalSkyline(q.Threshold, q.Dims)}
					m.take(handleOK(t, eng, &transport.Request{Kind: transport.KindInit, Session: id, Query: q}))
					models[id] = m
					ids = append(ids, id)
				case op < 12:
					id, m := pick()
					if !m.done {
						m.take(handleOK(t, eng, &transport.Request{Kind: transport.KindNext, Session: id}))
					}
				case op < 16:
					id, m := pick()
					feed := transport.Feedback{Tuple: uncertain.Tuple{
						ID:    1 << 20,
						Point: geom.Point{0.4 * r.Float64(), 0.4 * r.Float64(), 0.4 * r.Float64()},
						Prob:  0.5 + 0.5*r.Float64(),
					}}
					feed.HomeLocalProb = feed.Tuple.Prob * r.Float64()
					resp := handleOK(t, eng, &transport.Request{Kind: transport.KindEvaluate, Session: id, Feed: feed})
					// The engine has already popped len(m.got) members.
					homeFactor := feed.HomeLocalProb / feed.Tuple.Prob * (1 - feed.Tuple.Prob)
					n, kept := 0, append([]uncertain.SkylineMember(nil), m.want[:len(m.got)]...)
					for _, c := range m.want[len(m.got):] {
						if feed.Tuple.Dominates(c.Tuple, m.query.Dims) && c.Prob*homeFactor < m.query.Threshold {
							n++
							continue
						}
						kept = append(kept, c)
					}
					if resp.Pruned != n {
						t.Fatalf("session %d: engine pruned %d, model %d", id, resp.Pruned, n)
					}
					m.want = kept
					pruned += n
				case op < 18:
					tu := randomPart(r, 1, d)[0]
					if r.Intn(2) == 0 {
						// Near the origin, so it changes local skylines.
						for j := range tu.Point {
							tu.Point[j] *= 0.3
						}
					}
					tu.ID = nextID
					nextID++
					handleOK(t, eng, &transport.Request{Kind: transport.KindInsert, Tuple: tu})
					ref.Insert(tu)
					live = append(live, tu)
				default:
					i := r.Intn(len(live))
					if sky := ref.LocalSkyline(0.05, nil); r.Intn(2) == 0 && len(sky) > 0 {
						// A skyline member, so the deletion changes local
						// skylines.
						id := sky[r.Intn(len(sky))].Tuple.ID
						for i = range live {
							if live[i].ID == id {
								break
							}
						}
					}
					tu := live[i]
					handleOK(t, eng, &transport.Request{Kind: transport.KindDelete, ID: tu.ID, Point: tu.Point})
					if err := ref.Delete(tu.ID, tu.Point); err != nil {
						t.Fatal(err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, id := range ids {
				m := models[id]
				for !m.done {
					m.take(handleOK(t, eng, &transport.Request{Kind: transport.KindNext, Session: id}))
				}
				m.check(t, id)
			}
			hits := reg.Counter("dsud_site_skyline_cache_hits_total").Value()
			misses := reg.Counter("dsud_site_skyline_cache_misses_total").Value()
			if hits == 0 || misses == 0 || pruned == 0 {
				t.Fatalf("interleaving exercised too little: %d hits, %d misses, %d pruned", hits, misses, pruned)
			}
			if int(hits+misses) != len(ids) {
				t.Fatalf("%d hits + %d misses for %d Inits", hits, misses, len(ids))
			}
		})
	}
}

// Sessions on one cache key must not alias each other's lists. Sessions 1
// (the search) and 2 (a cache hit) are pruned to nothing with the unsound
// forced prune; session 3, a hit from before the prunes, and session 4, a
// hit from after them, must still stream the full list.
func TestSkylineCacheSessionsDoNotAlias(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	part := randomPart(r, 400, 3)
	eng := New(0, part, 3, 0)
	eng.TestingForceBadPrune(true)
	full := prtree.Bulk(part, 3, 0).LocalSkyline(0.2, nil)
	if len(full) < 10 {
		t.Fatalf("local skyline too small to test: %d", len(full))
	}
	dims := [][]int{nil, {2, 0, 1}, {0, 1, 2}, {1, 2, 0}}
	models := make([]*cacheModel, len(dims))
	start := func(i int) {
		models[i] = &cacheModel{query: transport.Query{Threshold: 0.2, Dims: dims[i]}, want: full}
		models[i].take(handleOK(t, eng, &transport.Request{Kind: transport.KindInit, Session: uint64(i + 1), Query: models[i].query}))
	}
	for i := 0; i < 3; i++ {
		start(i)
	}
	// The first feedback prunes some members, compacting the list in
	// place (which shifts the survivors of a shared slice); the second,
	// at the origin, prunes the rest.
	for _, id := range []uint64{1, 2} {
		for _, pt := range []geom.Point{{0.1, 0.1, 0.1}, {0, 0, 0}} {
			feed := transport.Feedback{
				Tuple:         uncertain.Tuple{ID: 1 << 20, Point: pt, Prob: 0.99},
				HomeLocalProb: 0.99,
			}
			resp := handleOK(t, eng, &transport.Request{Kind: transport.KindEvaluate, Session: id, Feed: feed})
			if resp.Pruned == 0 {
				t.Fatalf("session %d: feedback at %v pruned nothing", id, pt)
			}
		}
		if n := len(eng.sessions[id].sky); n != 0 {
			t.Fatalf("forced prune left %d members in session %d", n, id)
		}
	}
	start(3)
	for i := 2; i < 4; i++ {
		id := uint64(i + 1)
		for !models[i].done {
			models[i].take(handleOK(t, eng, &transport.Request{Kind: transport.KindNext, Session: id}))
		}
		models[i].check(t, id)
	}
}

// A traced Init says whether it searched the PR-tree or read the cache.
func TestTracedInitMarksCacheHit(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	eng := New(0, randomPart(r, 200, 3), 3, 0)
	spanNames := func(resp *transport.Response) string {
		batch, err := codec.DecodeSpanBatch(resp.TraceBlob)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, s := range batch.Spans {
			names = append(names, s.Name)
		}
		return strings.Join(names, ",")
	}
	first := spanNames(handleOK(t, eng, tracedReq(transport.KindInit)))
	second := spanNames(handleOK(t, eng, tracedReq(transport.KindInit)))
	if !strings.Contains(first, "prtree-search") || strings.Contains(first, "skyline-cache-hit") {
		t.Fatalf("cold Init spans %q, want a prtree-search", first)
	}
	if strings.Contains(second, "prtree-search") || !strings.Contains(second, "skyline-cache-hit") {
		t.Fatalf("warm Init spans %q, want a skyline-cache-hit and no search", second)
	}
}

// Abandoned sessions must not lock a site out: once the table is full, an
// Init reaps sessions idle past the lease, but never a recently touched
// one.
func TestSessionLeaseReapsIdleSessions(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	eng := New(0, randomPart(r, 50, 2), 2, 0)
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	q := transport.Query{Threshold: 0.3}
	for id := uint64(1); id <= MaxSessions; id++ {
		handleOK(t, eng, &transport.Request{Kind: transport.KindInit, Session: id, Query: q})
	}
	extra := &transport.Request{Kind: transport.KindInit, Session: MaxSessions + 1, Query: q}
	if _, err := eng.Handle(context.Background(), extra); err == nil {
		t.Fatal("Init beyond MaxSessions with every session fresh must fail")
	}

	// Backdate every session past the lease, then touch session 1 with an
	// Evaluate and session 2 with a Next: only the others may be reaped.
	eng.mu.Lock()
	for _, s := range eng.sessions {
		s.touched -= int64(sessionTTL + time.Second)
	}
	eng.mu.Unlock()
	feed := transport.Feedback{Tuple: uncertain.Tuple{ID: 1 << 20, Point: geom.Point{1, 1}, Prob: 0.5}, HomeLocalProb: 0.5}
	handleOK(t, eng, &transport.Request{Kind: transport.KindEvaluate, Session: 1, Feed: feed})
	handleOK(t, eng, &transport.Request{Kind: transport.KindNext, Session: 2})

	handleOK(t, eng, extra)
	if got := eng.Sessions(); got != 3 {
		t.Fatalf("%d sessions after the reap, want the 2 touched ones plus the new one", got)
	}
	for _, id := range []uint64{1, 2} {
		handleOK(t, eng, &transport.Request{Kind: transport.KindNext, Session: id})
	}
	if got := reg.Counter("dsud_site_sessions_expired_total").Value(); got != MaxSessions-2 {
		t.Fatalf("expired counter = %d, want %d", got, MaxSessions-2)
	}
}

// BenchmarkHandleInit measures one Init at a site of 20k uniform random
// tuples: cold searches the PR-tree every time (the cache is cleared
// first), warm serves the cached prefix.
func BenchmarkHandleInit(b *testing.B) {
	r := rand.New(rand.NewSource(64))
	eng := New(0, randomPart(r, 20000, 3), 3, 0)
	req := &transport.Request{Kind: transport.KindInit, Query: transport.Query{Threshold: 0.3}}
	for _, bc := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			if _, err := eng.Handle(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.cold {
					eng.mu.Lock()
					clear(eng.skyCache)
					eng.mu.Unlock()
				}
				if _, err := eng.Handle(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHandleEvaluate measures one feedback Evaluate (CrossSkyProb
// plus the Observation-2 prune of the session's remaining skyline) at a
// site holding one proto-cpu partition: 5000 anticorrelated 3-d tuples.
// Feedback tuples are another partition's local skyline, as a coordinator
// would broadcast them; the session is re-initialised (a cache hit) each
// time the feedback list wraps, so pruning reaches a steady state.
func BenchmarkHandleEvaluate(b *testing.B) {
	part := func(seed int64, first uncertain.TupleID) uncertain.DB {
		db, err := gen.Generate(gen.Config{N: 5000, Dims: 3, Values: gen.Anticorrelated,
			Probs: gen.UniformProb, Seed: seed, FirstID: first})
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	eng := New(0, part(7, 1), 3, 0)
	other := prtree.Bulk(part(8, 100001), 3, 0)
	for _, bc := range []struct {
		name string
		dims []int
	}{{"full", nil}, {"dims=01", []int{0, 1}}} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			query := transport.Query{Threshold: 0.3, Dims: bc.dims}
			feeds := other.LocalSkyline(query.Threshold, bc.dims)
			initReq := &transport.Request{Kind: transport.KindInit, Session: 1, Query: query}
			evals := make([]*transport.Request, len(feeds))
			for i, m := range feeds {
				evals[i] = &transport.Request{Kind: transport.KindEvaluate, Session: 1, Query: query,
					Feed: transport.Feedback{Tuple: m.Tuple, HomeLocalProb: m.Prob}}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(evals) == 0 {
					if _, err := eng.Handle(ctx, initReq); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := eng.Handle(ctx, evals[i%len(evals)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
