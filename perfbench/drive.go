package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/dsq"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/uncertain"
)

// queryOutcome is what one protocol query returned, kept for the answer
// check and the metrics.
type queryOutcome struct {
	latency   time.Duration
	ttfr      time.Duration // 0 when the answer is empty
	err       error
	rep       *dsq.Report
	delivered []uncertain.TupleID // OnResult order
	phases    []time.Duration     // per core.Phases(), sampled queries only
}

// statsEvery is how often a traced run sends a query through
// QueryWithStats for the coordinator's phase summary. Those queries ask
// the sites to trace too, so they are left out of the transport and site
// rows.
const statsEvery = 4

// runQueries drives ops through closed-loop clients sharing each tenant's
// Cluster, and returns the outcomes in op order.
func (w *world) runQueries(ctx context.Context, ops []queryOp, clients int, rec *recorder) []queryOutcome {
	out := make([]queryOutcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				sampled := rec != nil && i%statsEvery == 0
				out[i] = w.query(ctx, ops[i], rec, sampled)
			}
		}()
	}
	wg.Wait()
	return out
}

func (w *world) query(ctx context.Context, op queryOp, rec *recorder, sampled bool) queryOutcome {
	tn := w.tenants[op.tenant]
	key := w.spec.keys[op.key]
	var o queryOutcome
	start := time.Now()
	opts := dsq.Options{Threshold: key.q, Dims: key.dims, OnResult: func(r dsq.Result) {
		if o.delivered == nil {
			o.ttfr = time.Since(start)
		}
		o.delivered = append(o.delivered, r.Tuple.ID)
	}}
	ctx, id := rec.startOp(ctx, sampled)
	if sampled {
		var st *dsq.QueryStats
		o.rep, st, o.err = tn.cluster.QueryWithStats(ctx, opts)
		if st != nil {
			for _, p := range core.Phases() {
				o.phases = append(o.phases, st.Trace.Phases[p].Total)
			}
		}
	} else {
		o.rep, o.err = tn.cluster.Query(ctx, opts)
	}
	o.latency = time.Since(start)
	rec.endOp(id)
	return o
}

// update is one §5.4 write of a serve-churn run.
type update struct {
	tenant int
	insert bool
	home   int
	tuple  uncertain.Tuple
}

// updates draws the serve-churn write sequence, rotating over the
// tenants: inserts of fresh tuples from the workload's distribution, and
// deletes of earlier inserts into the same tenant that are still present,
// in a fixed pattern of four inserts then a delete per tenant. A delete
// costs several times an insert; fixing the mix at four to one keeps the
// median update well inside the inserts and puts the 90th percentile at
// the median delete, instead of moving between them with the seed. IDs
// start above the initial database.
func (s spec) updates(seed int64, count int) ([]update, error) {
	fresh, err := gen.Generate(gen.Config{
		N: count, Dims: dims, Values: s.values, Probs: gen.UniformProb,
		Seed: seed ^ 0x7e57, FirstID: uncertain.TupleID(s.n + 1),
	})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed ^ 0x0bad))
	live := make([][]update, s.tenants)
	out := make([]update, 0, count)
	for i := 0; i < count; i++ {
		t := i % s.tenants
		if (i/s.tenants)%5 == 4 {
			k := r.Intn(len(live[t]))
			del := live[t][k]
			live[t] = append(live[t][:k], live[t][k+1:]...)
			del.insert = false
			out = append(out, del)
			continue
		}
		u := update{tenant: t, insert: true, home: r.Intn(sites), tuple: fresh[i]}
		live[t] = append(live[t], u)
		out = append(out, u)
	}
	return out, nil
}

// reservoirSize bounds the read latencies a serve-churn run keeps, so the
// benchmark's own memory does not grow with read throughput.
const reservoirSize = 1 << 16

// reservoir is a uniform random sample of a stream (Algorithm R).
type reservoir struct {
	r    *rand.Rand
	seen int
	xs   []time.Duration
}

func newReservoir(seed int64) *reservoir {
	return &reservoir{r: rand.New(rand.NewSource(seed)), xs: make([]time.Duration, 0, reservoirSize)}
}

func (s *reservoir) add(x time.Duration) {
	s.seen++
	if len(s.xs) < reservoirSize {
		s.xs = append(s.xs, x)
	} else if k := s.r.Intn(s.seen); k < reservoirSize {
		s.xs[k] = x
	}
}

// churnOutcome holds a serve-churn run's samples.
type churnOutcome struct {
	reads      int             // successful materialized reads
	readLat    []time.Duration // a uniform sample of their latencies
	readTTFR   []time.Duration // and of their times to first result
	entries    int64           // answer entries delivered over all reads
	readFailed int
	badReads   int // reads whose answer was unsorted or below its threshold

	// Per update: latency from its scheduled send, service time from its
	// actual start, and how late the writer started it.
	updateLat  []time.Duration
	service    []time.Duration
	lag        []time.Duration
	inserts    []bool
	updateErrs int
	window     time.Duration
}

// runChurn sends the updates as an open loop at the workload's fixed rate
// from one writer, while closed-loop readers query the tenants'
// materialized tiers until the writer is done.
func (w *world) runChurn(ctx context.Context, ups []update, readers int, seed int64, rec *recorder) churnOutcome {
	var o churnOutcome
	var stop atomic.Bool
	var wg sync.WaitGroup
	type readerOut struct {
		lat, ttfr     *reservoir
		reads         int
		entries       int64
		failed, wrong int
	}
	routs := make([]readerOut, readers)
	start := time.Now()
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ro := &routs[c]
			rs := seed ^ int64(c+1)*0x9e37
			ro.lat, ro.ttfr = newReservoir(rs+1), newReservoir(rs+2)
			r := rand.New(rand.NewSource(rs))
			for !stop.Load() {
				srv := w.tenants[r.Intn(len(w.tenants))].server
				q := w.spec.floor + r.Float64()*(0.9-w.spec.floor)
				var first time.Duration
				t0 := time.Now()
				rep, err := srv.Query(ctx, dsq.Options{Threshold: q, Mode: dsq.ModeMaterialized, OnResult: func(dsq.Result) {
					if first == 0 {
						first = time.Since(t0)
					}
				}})
				lat := time.Since(t0)
				if err != nil {
					ro.failed++
					continue
				}
				ro.reads++
				ro.lat.add(lat)
				if first > 0 {
					ro.ttfr.add(first)
				}
				ro.entries += int64(len(rep.Skyline))
				if !sortedAbove(rep.Skyline, q) {
					ro.wrong++
				}
				// Let the writer's timer and the sites' handlers run
				// promptly, as they would beside separate client
				// processes; without this a busy reader holds its P for
				// up to a 10 ms preemption slice.
				runtime.Gosched()
			}
		}(c)
	}

	interval := time.Duration(float64(time.Second) / w.spec.opsPerSecond)
	for i, u := range ups {
		due := start.Add(time.Duration(i) * interval)
		// Sleep to within 1 ms of the due time, then yield until it: an
		// idle Go runtime waits for timers in whole milliseconds, which
		// started writes up to 2 ms late and counted the generator's own
		// lateness as update latency.
		if d := time.Until(due); d > time.Millisecond {
			time.Sleep(d - time.Millisecond)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		srv := w.tenants[u.tenant].server
		began := time.Now()
		octx, id := rec.startOp(ctx, false)
		var err error
		if u.insert {
			err = srv.Insert(octx, u.home, u.tuple)
		} else {
			err = srv.Delete(octx, u.home, u.tuple)
		}
		rec.endOp(id)
		end := time.Now()
		if err != nil {
			o.updateErrs++
			continue
		}
		o.updateLat = append(o.updateLat, end.Sub(due))
		o.service = append(o.service, end.Sub(began))
		o.lag = append(o.lag, began.Sub(due))
		o.inserts = append(o.inserts, u.insert)
	}
	stop.Store(true)
	wg.Wait()
	o.window = time.Since(start)
	for _, ro := range routs {
		o.reads += ro.reads
		o.readLat = append(o.readLat, ro.lat.xs...)
		o.readTTFR = append(o.readTTFR, ro.ttfr.xs...)
		o.entries += ro.entries
		o.readFailed += ro.failed
		o.badReads += ro.wrong
	}
	return o
}

// sortedAbove reports whether a served answer is in report order
// (descending probability, ascending ID on ties) with every member at or
// above the threshold.
func sortedAbove(members []uncertain.SkylineMember, q float64) bool {
	for i, m := range members {
		if m.Prob < q {
			return false
		}
		if i > 0 {
			prev := members[i-1]
			if prev.Prob < m.Prob || (prev.Prob == m.Prob && prev.Tuple.ID >= m.Tuple.ID) {
				return false
			}
		}
	}
	return true
}
