package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/dsq"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// tenant is one generated database, partitioned over its own in-process
// site servers on loopback TCP, and the one Cluster that queries it (one
// mux connection per site, shared by every client).
type tenant struct {
	parts   []uncertain.DB
	engines []*site.Engine
	servers []*transport.Server
	cluster *dsq.Cluster
	server  servingTier // serve-churn only
}

// servingTier is the part of *dsq.Server the benchmark uses. Tests wrap
// it to show that the answer check catches a faulty read.
type servingTier interface {
	Query(context.Context, dsq.Options) (*dsq.Report, error)
	Insert(ctx context.Context, home int, t uncertain.Tuple) error
	Delete(ctx context.Context, home int, t uncertain.Tuple) error
	Skyline() []uncertain.SkylineMember
	Stats() dsq.ServeStats
}

// world is one set-up run: every tenant of the workload, plus the
// set-up timings.
type world struct {
	spec    spec
	seed    int64
	tenants []*tenant
	setup   setupTimes
}

// setupTimes splits set-up into its phases.
type setupTimes struct {
	gen, index, connect, materialize, total time.Duration
}

// setupWorld generates the data, builds every site's PR-tree, serves the
// sites on loopback, connects, and runs one warmup query per tenant (a
// Cluster.Serve round on serve-churn). With rec non-nil, the sites and
// the clients are wrapped for tracing. The answer oracle is not part of
// set-up.
func setupWorld(ctx context.Context, sp spec, seed int64, rec *recorder) (*world, error) {
	w := &world{spec: sp, seed: seed}
	start := time.Now()

	mark := start
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}
	for t := 0; t < sp.tenants; t++ {
		ts := tenantSeed(seed, t)
		db, err := gen.Generate(gen.Config{N: sp.n, Dims: dims, Values: sp.values, Probs: gen.UniformProb, Seed: ts})
		if err != nil {
			return nil, err
		}
		parts, err := gen.Partition(db, sites, ts+1)
		if err != nil {
			return nil, err
		}
		w.tenants = append(w.tenants, &tenant{parts: parts})
	}
	w.setup.gen = lap()

	for _, tn := range w.tenants {
		for i, part := range tn.parts {
			tn.engines = append(tn.engines, site.New(i, part, dims, 0))
		}
	}
	w.setup.index = lap()

	for t, tn := range w.tenants {
		if err := tn.listen(t, rec); err != nil {
			w.close()
			return nil, err
		}
	}
	w.setup.connect = lap()

	if err := w.warmup(ctx); err != nil {
		w.close()
		return nil, err
	}
	w.setup.materialize = lap()
	w.setup.total = time.Since(start)
	return w, nil
}

// listen serves every site of the tenant on a loopback port and connects
// the tenant's Cluster to them.
func (tn *tenant) listen(t int, rec *recorder) error {
	addrs := make([]string, len(tn.engines))
	for i, eng := range tn.engines {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		srv := transport.NewServer(siteHandler(eng, globalSite(t, i), rec), nil)
		go srv.Serve(lis)
		tn.servers = append(tn.servers, srv)
		addrs[i] = lis.Addr().String()
	}
	cluster, err := connect(addrs, t, rec)
	if err != nil {
		return err
	}
	tn.cluster = cluster
	return nil
}

// globalSite numbers sites across tenants, for the trace.
func globalSite(t, i int) int { return t*sites + i }

// siteHandler serves the engine; a traced run wraps it to time each
// request.
func siteHandler(eng *site.Engine, gsite int, rec *recorder) transport.Handler {
	if rec == nil {
		return eng
	}
	return &tracedHandler{inner: eng, site: gsite, rec: rec}
}

// connect is the one place that chooses how the coordinator dials the
// sites. Untraced runs use the public dsq.Connect; traced runs dial each
// site the same way (mux, no retry) and wrap the client for tracing.
func connect(addrs []string, t int, rec *recorder) (*dsq.Cluster, error) {
	if rec == nil {
		return dsq.Connect(dsq.ClusterConfig{Addrs: addrs, Dims: dims})
	}
	clients := make([]transport.Client, 0, len(addrs))
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for i, addr := range addrs {
		c, err := transport.DialAuto(addr, nil)
		if err != nil {
			closeAll()
			return nil, err
		}
		br, ok := c.(transport.ByteReporter)
		if !ok {
			c.Close()
			closeAll()
			return nil, errors.New("site did not negotiate the mux protocol")
		}
		clients = append(clients, &tracedClient{inner: br, site: globalSite(t, i), rec: rec})
	}
	return core.NewClusterFromClients(clients, dims)
}

// warmup runs one query per tenant concurrently (Serve on serve-churn),
// so connections, gob type descriptors and the heap are warm before the
// first timed operation.
func (w *world) warmup(ctx context.Context) error {
	errs := make([]error, len(w.tenants))
	var wg sync.WaitGroup
	for t, tn := range w.tenants {
		wg.Add(1)
		go func(t int, tn *tenant) {
			defer wg.Done()
			if w.spec.serve {
				srv, err := tn.cluster.Serve(ctx, dsq.ServeConfig{Floor: w.spec.floor})
				if err == nil {
					tn.server = srv
				}
				errs[t] = err
				return
			}
			_, errs[t] = tn.cluster.Query(ctx, dsq.Options{Threshold: w.spec.keys[0].q, Dims: w.spec.keys[0].dims})
		}(t, tn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close releases every connection and stops every site server.
func (w *world) close() {
	for _, tn := range w.tenants {
		if tn.cluster != nil {
			tn.cluster.Close()
		}
		for _, srv := range tn.servers {
			srv.Close()
		}
	}
}

// serveTotals sums the tenants' bandwidth meters and serving counters.
func (w *world) serveTotals() (transport.Snapshot, dsq.ServeStats) {
	var m transport.Snapshot
	var st dsq.ServeStats
	for _, tn := range w.tenants {
		s := tn.cluster.Meter().Snapshot()
		m.TuplesUp += s.TuplesUp
		m.TuplesDown += s.TuplesDown
		m.Messages += s.Messages
		m.Bytes += s.Bytes
		x := tn.server.Stats()
		st.Hits += x.Hits
		st.Misses += x.Misses
		st.Refreshes += x.Refreshes
		st.Coalesced += x.Coalesced
	}
	return m, st
}
