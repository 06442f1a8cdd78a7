package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/dsq"
	"repro/internal/uncertain"
)

// probTol is how far a reported probability may be from the oracle's.
const probTol = 1e-9

// oracle holds, per tenant and subspace, every tuple whose exact skyline
// probability reaches the lowest threshold queried there, in report order.
type oracle map[oracleKey][]uncertain.SkylineMember

type oracleKey struct {
	tenant int
	dims   string
}

func dimsKey(d []int) string { return fmt.Sprint(d) }

// buildOracle computes one brute-force pass over the union per tenant and
// subspace, at the lowest threshold queried there.
func buildOracle(w *world) oracle {
	o := make(oracle)
	if w.spec.serve {
		return o // checkChurn builds the oracle over the final data
	}
	for t, tn := range w.tenants {
		union := uncertain.Union(tn.parts)
		for _, sub := range w.spec.subspaces() {
			o[oracleKey{t, dimsKey(sub.dims)}] = skyline(union, sub.q, sub.dims)
		}
	}
	return o
}

// skyline is the brute-force probabilistic skyline of db at threshold q:
// eq. 3 for every tuple, multiplying (1 − P) over every tuple of db that
// dominates it. Two exact shortcuts keep it affordable at n = 20k. A
// dominator's coordinate sum over the subspace is never larger than the
// dominated tuple's (floating-point addition is monotone), so each tuple
// scans the tuples in ascending sum order and stops past its own sum. And
// the product only falls, so a tuple is dropped once it is below q: its
// probability (and P ≤ P(t), so tuples with P(t) < q) never matter.
func skyline(db uncertain.DB, q float64, dims []int) []uncertain.SkylineMember {
	type bySum struct {
		sum float64
		t   uncertain.Tuple
	}
	sorted := make([]bySum, len(db))
	for i, t := range db {
		var s float64
		if dims == nil {
			for _, x := range t.Point {
				s += x
			}
		} else {
			for _, d := range dims {
				s += t.Point[d]
			}
		}
		sorted[i] = bySum{s, t}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].sum < sorted[j].sum })

	workers := runtime.NumCPU()
	parts := make([][]uncertain.SkylineMember, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(sorted); i += workers {
				t := sorted[i]
				p := t.t.Prob
				for j := 0; p >= q && j < len(sorted) && sorted[j].sum <= t.sum; j++ {
					o := sorted[j].t
					if o.ID != t.t.ID && o.Dominates(t.t, dims) {
						p *= 1 - o.Prob
					}
				}
				if p >= q {
					parts[k] = append(parts[k], uncertain.SkylineMember{Tuple: t.t, Prob: p})
				}
			}
		}(k)
	}
	wg.Wait()
	var out []uncertain.SkylineMember
	for _, p := range parts {
		out = append(out, p...)
	}
	uncertain.SortMembers(out)
	return out
}

// above returns the prefix of a report-ordered answer at threshold q.
func above(members []uncertain.SkylineMember, q float64) []uncertain.SkylineMember {
	n := sort.Search(len(members), func(i int) bool { return members[i].Prob < q })
	return members[:n]
}

// matchOracle checks an answer against the oracle's: the same tuple IDs,
// each probability within probTol, and the answer in report order by its
// own probabilities.
func matchOracle(got, want []uncertain.SkylineMember) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, oracle has %d", len(got), len(want))
	}
	wantP := make(map[uncertain.TupleID]float64, len(want))
	for _, m := range want {
		wantP[m.Tuple.ID] = m.Prob
	}
	for i, m := range got {
		p, ok := wantP[m.Tuple.ID]
		if !ok {
			return fmt.Errorf("tuple %d is not in the oracle's answer", m.Tuple.ID)
		}
		if math.Abs(p-m.Prob) > probTol {
			return fmt.Errorf("tuple %d: P=%v, oracle %v", m.Tuple.ID, m.Prob, p)
		}
		if i > 0 {
			prev := got[i-1]
			if prev.Prob < m.Prob || (prev.Prob == m.Prob && prev.Tuple.ID > m.Tuple.ID) {
				return fmt.Errorf("answer out of order at %d: tuple %d (P=%v) after tuple %d (P=%v)",
					i, m.Tuple.ID, m.Prob, prev.Tuple.ID, prev.Prob)
			}
		}
	}
	return nil
}

// checkQueries checks the first answer of every distinct (tenant, query
// shape) against the oracle, and every later one for being identical to
// that first answer, in delivery order too. Failed queries are counted,
// not checked.
func checkQueries(w *world, or oracle, ops []queryOp, outs []queryOutcome) error {
	first := make(map[queryOp]int)
	for i, o := range outs {
		if o.err != nil {
			continue
		}
		op := ops[i]
		j, seen := first[op]
		if !seen {
			first[op] = i
			key := w.spec.keys[op.key]
			want := above(or[oracleKey{op.tenant, dimsKey(key.dims)}], key.q)
			if err := matchOracle(o.rep.Skyline, want); err != nil {
				return fmt.Errorf("tenant %d %v: %w", op.tenant, key, err)
			}
			continue
		}
		if err := sameAnswer(outs[j], o); err != nil {
			return fmt.Errorf("tenant %d %v: repeat differs from its first answer: %w", op.tenant, w.spec.keys[op.key], err)
		}
	}
	return nil
}

func sameAnswer(a, b queryOutcome) error {
	if len(a.rep.Skyline) != len(b.rep.Skyline) {
		return fmt.Errorf("%d answers, first had %d", len(b.rep.Skyline), len(a.rep.Skyline))
	}
	for i := range a.rep.Skyline {
		x, y := a.rep.Skyline[i], b.rep.Skyline[i]
		if x.Tuple.ID != y.Tuple.ID || x.Prob != y.Prob {
			return fmt.Errorf("answer %d is tuple %d P=%v, first had tuple %d P=%v", i, y.Tuple.ID, y.Prob, x.Tuple.ID, x.Prob)
		}
	}
	if len(a.delivered) != len(b.delivered) {
		return fmt.Errorf("%d deliveries, first had %d", len(b.delivered), len(a.delivered))
	}
	for i := range a.delivered {
		if a.delivered[i] != b.delivered[i] {
			return fmt.Errorf("delivery %d is tuple %d, first delivered tuple %d", i, b.delivered[i], a.delivered[i])
		}
	}
	return nil
}

// checkReads is how many materialized reads per tenant the quiesced
// serve-churn check makes: one at the floor and the rest at seeded
// thresholds in [floor, 0.9], the range the timed reads draw from.
const checkReads = 5

// checkChurn checks a quiesced serve-churn run: in every tenant, the
// served skyline, a fresh protocol round and materialized reads at
// several thresholds must all match the oracle over the final data. The
// oracle is cached in or, since every pass of one seed ends on the same
// data.
func checkChurn(ctx context.Context, w *world, ups []update, o churnOutcome, or oracle) error {
	if o.badReads > 0 {
		return fmt.Errorf("%d materialized reads were out of order or below their threshold", o.badReads)
	}
	if o.updateErrs > 0 {
		return fmt.Errorf("%d updates failed, so the final data is unknown", o.updateErrs)
	}
	for t, tn := range w.tenants {
		key := oracleKey{tenant: t, dims: "final"}
		want, ok := or[key]
		if !ok {
			want = skyline(finalUnion(tn.parts, ups, t), w.spec.floor, nil)
			or[key] = want
		}
		if err := matchOracle(tn.server.Skyline(), want); err != nil {
			return fmt.Errorf("tenant %d served skyline: %w", t, err)
		}
		rep, err := tn.cluster.Query(ctx, dsq.Options{Threshold: w.spec.floor})
		if err != nil {
			return fmt.Errorf("tenant %d fresh protocol round: %w", t, err)
		}
		if err := matchOracle(rep.Skyline, want); err != nil {
			return fmt.Errorf("tenant %d fresh protocol round: %w", t, err)
		}
		r := rand.New(rand.NewSource(w.seed ^ int64(t+1)*0x5eed))
		for i := 0; i < checkReads; i++ {
			q := w.spec.floor
			if i > 0 {
				q += r.Float64() * (0.9 - w.spec.floor)
			}
			if err := checkRead(ctx, tn.server, q, above(want, q)); err != nil {
				return fmt.Errorf("tenant %d materialized read at q=%v: %w", t, q, err)
			}
		}
	}
	return nil
}

// checkRead makes one materialized read at threshold q and checks its
// answer against the oracle's, and its OnResult deliveries against the
// answer's order.
func checkRead(ctx context.Context, srv servingTier, q float64, want []uncertain.SkylineMember) error {
	var delivered []uncertain.TupleID
	rep, err := srv.Query(ctx, dsq.Options{Threshold: q, Mode: dsq.ModeMaterialized, OnResult: func(r dsq.Result) {
		delivered = append(delivered, r.Tuple.ID)
	}})
	if err != nil {
		return err
	}
	if err := matchOracle(rep.Skyline, want); err != nil {
		return err
	}
	if len(delivered) != len(rep.Skyline) {
		return fmt.Errorf("%d deliveries for %d answers", len(delivered), len(rep.Skyline))
	}
	for i, id := range delivered {
		if id != rep.Skyline[i].Tuple.ID {
			return fmt.Errorf("delivery %d is tuple %d, answer %d is tuple %d", i, id, i, rep.Skyline[i].Tuple.ID)
		}
	}
	return nil
}

// finalUnion applies one tenant's updates to its initial partitions.
func finalUnion(parts []uncertain.DB, ups []update, tenant int) uncertain.DB {
	live := make(map[uncertain.TupleID]uncertain.Tuple)
	for _, p := range parts {
		for _, t := range p {
			live[t.ID] = t
		}
	}
	for _, u := range ups {
		if u.tenant != tenant {
			continue
		}
		if u.insert {
			live[u.tuple.ID] = u.tuple
		} else {
			delete(live, u.tuple.ID)
		}
	}
	db := make(uncertain.DB, 0, len(live))
	for _, t := range live {
		db = append(db, t)
	}
	sort.Slice(db, func(i, j int) bool { return db[i].ID < db[j].ID })
	return db
}
