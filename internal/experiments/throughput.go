package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/perf"
	"repro/internal/site"
	"repro/internal/transport"
)

// Concurrent-query throughput: the same query batch pushed through one
// shared cluster at increasing client concurrency, once over the
// multiplexed wire protocol and once from a warm coordinator-side
// materialized serving tier. Loopback TCP has no meaningful round-trip
// or service time, so each site handler is wrapped in
// transport.DelayedHandler — the delay is what the mux overlaps across
// concurrent queries, and what the serving tier avoids altogether after
// its single warmup round.

// ThroughputOptions tunes the throughput measurement.
type ThroughputOptions struct {
	// Concurrency lists the client counts to measure (default 1, 4, 8).
	Concurrency []int
	// Queries is the minimum batch size per measurement; batches are
	// widened to two queries per client so every client stays busy
	// (default 6).
	Queries int
	// N is the workload cardinality (default 800 — small on purpose: the
	// benchmark measures the transport under service delay, not the
	// algorithms, and the cost artifact's algorithm sections already
	// cover compute).
	N int
	// Sites is the number of loopback site daemons (default 4).
	Sites int
	// SiteDelay is the injected per-request service delay at each site
	// (default 1ms).
	SiteDelay time.Duration
	// Seed fixes the workload (default 7).
	Seed int64
}

func (o ThroughputOptions) withDefaults() ThroughputOptions {
	if len(o.Concurrency) == 0 {
		o.Concurrency = []int{1, 4, 8}
	}
	if o.Queries <= 0 {
		o.Queries = 6
	}
	if o.N <= 0 {
		o.N = 800
	}
	if o.Sites <= 0 {
		o.Sites = 4
	}
	if o.SiteDelay <= 0 {
		o.SiteDelay = time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// Throughput measures end-to-end queries/sec per concurrency level and
// returns one ThroughputResult per level in input order. Each level's
// Speedup is its mux rate over the mux rate at the lowest concurrency
// measured.
func Throughput(ctx context.Context, opts ThroughputOptions) ([]perf.ThroughputResult, error) {
	opts = opts.withDefaults()
	db, err := gen.Generate(gen.Config{
		N: opts.N, Dims: DefaultDims, Values: gen.Independent,
		Probs: gen.UniformProb, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	parts, err := gen.Partition(db, opts.Sites, opts.Seed+1)
	if err != nil {
		return nil, err
	}

	addrs := make([]string, len(parts))
	servers := make([]*transport.Server, len(parts))
	for i, part := range parts {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		handler := transport.DelayedHandler(site.New(i, part, DefaultDims, 0), opts.SiteDelay)
		srv := transport.NewServer(handler, nil)
		go srv.Serve(lis)
		addrs[i] = lis.Addr().String()
		servers[i] = srv
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	results := make([]perf.ThroughputResult, 0, len(opts.Concurrency))
	for _, clients := range opts.Concurrency {
		if clients <= 0 {
			return nil, fmt.Errorf("experiments: throughput concurrency must be positive, got %d", clients)
		}
		batch := opts.Queries
		if min := 2 * clients; batch < min {
			batch = min
		}
		muxQPS, err := throughputBatch(ctx, addrs, clients, batch)
		if err != nil {
			return nil, fmt.Errorf("experiments: throughput mux @%d: %w", clients, err)
		}
		matQPS, err := materializedBatch(ctx, addrs, clients, batch)
		if err != nil {
			return nil, fmt.Errorf("experiments: throughput materialized @%d: %w", clients, err)
		}
		results = append(results, perf.ThroughputResult{
			Concurrency:     clients,
			Queries:         batch,
			SiteDelayMicros: opts.SiteDelay.Microseconds(),
			MuxQPS:          muxQPS,
			MaterializedQPS: matQPS,
			ServeSpeedup:    matQPS / muxQPS,
		})
	}
	base := results[0]
	for _, r := range results[1:] {
		if r.Concurrency < base.Concurrency {
			base = r
		}
	}
	for i := range results {
		results[i].Speedup = results[i].MuxQPS / base.MuxQPS
	}
	return results, nil
}

// materializedBatch drains the same batch through a warm coordinator-side
// serving tier (one protocol round at Serve time, then sorted-prefix
// reads). The gap between this rate and the mux rate is what the serving
// tier buys: reads stop paying the per-query site round-trips entirely.
func materializedBatch(ctx context.Context, addrs []string, clients, batch int) (float64, error) {
	cluster, err := core.Open(core.ClusterConfig{Addrs: addrs, Dims: DefaultDims})
	if err != nil {
		return 0, err
	}
	defer cluster.Close()
	server, err := cluster.Serve(ctx, core.ServeConfig{Floor: DefaultThreshold, Algorithm: core.EDSUD})
	if err != nil {
		return 0, err
	}
	opts := core.Options{Threshold: DefaultThreshold, Algorithm: core.EDSUD, Mode: core.ModeMaterialized}
	if _, err := server.Query(ctx, opts); err != nil {
		return 0, err
	}
	return drainBatch(clients, batch, func() error {
		_, err := server.Query(ctx, opts)
		return err
	})
}

// throughputBatch drains a batch of identical queries through one shared
// cluster with the given number of client goroutines and returns the
// completed-query rate. One unmeasured warmup query establishes the
// connections before the clock starts.
func throughputBatch(ctx context.Context, addrs []string, clients, batch int) (float64, error) {
	cluster, err := core.Open(core.ClusterConfig{Addrs: addrs, Dims: DefaultDims})
	if err != nil {
		return 0, err
	}
	defer cluster.Close()
	opts := core.Options{Threshold: DefaultThreshold, Algorithm: core.EDSUD}
	if _, err := cluster.Query(ctx, opts); err != nil {
		return 0, err
	}
	return drainBatch(clients, batch, func() error {
		_, err := cluster.Query(ctx, opts)
		return err
	})
}

// drainBatch runs query batch times across the given number of client
// goroutines and returns the completed-query rate, or the first error a
// client hit.
func drainBatch(clients, batch int, query func() error) (float64, error) {
	var remaining atomic.Int64
	remaining.Store(int64(batch))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for remaining.Add(-1) >= 0 {
				if err := query(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(batch) / wall.Seconds(), nil
}
