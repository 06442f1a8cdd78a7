package experiments

import (
	"context"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/perf"
	"repro/internal/site"
	"repro/internal/transport"
)

// Machine-readable benchmark artifact (dsud-bench -bench-json): every
// algorithm measured on the same workload, over loopback TCP so the byte
// counters measure the real framed wire rather than the in-process
// shortcut. Since schema v1 each algorithm runs warmup + N measured
// iterations and the artifact carries full per-metric distributions
// (median/p95/stddev/CV) plus an environment fingerprint — see
// internal/perf and docs/BENCHMARKING.md.

// DefaultBenchCap bounds the artifact's cardinality when BenchOptions
// leaves CapN zero: the JSON exists to track relative algorithm cost per
// commit, not to reproduce the paper's 2M scale, so runaway -n values
// are clamped for this artifact only (dsud-bench -bench-cap overrides).
const DefaultBenchCap = 20000

// benchSites caps the artifact's site count; beyond 8 loopback daemons
// the runs measure the test host's scheduler, not the algorithms.
const benchSites = 8

// BenchOptions tunes the artifact run.
type BenchOptions struct {
	// CapN bounds the workload cardinality (0 = DefaultBenchCap).
	// Values of scale.N above the cap are clamped, and the clamp is
	// reported through Logf.
	CapN int
	// Warmup is the number of unmeasured runs per algorithm (0 = default
	// of 1; negative = no warmup).
	Warmup int
	// Iterations is the number of measured runs per algorithm behind
	// each distribution (default 5; minimum 1).
	Iterations int
	// Logf, when non-nil, receives harness notices (clamped -n values,
	// per-algorithm progress). fmt.Printf-compatible.
	Logf func(format string, args ...any)
	// Concurrency lists the client counts for the transport throughput
	// section of the artifact (nil = the Throughput defaults of 1, 4, 8;
	// an explicit empty-but-non-nil slice is replaced by the defaults
	// too, so use SkipThroughput to turn the section off).
	Concurrency []int
	// SkipThroughput omits the transport throughput section.
	SkipThroughput bool
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.CapN <= 0 {
		o.CapN = DefaultBenchCap
	}
	switch {
	case o.Warmup < 0:
		o.Warmup = 0
	case o.Warmup == 0:
		o.Warmup = 1
	}
	if o.Iterations < 1 {
		o.Iterations = 5
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// BenchSummary measures every algorithm warmup+Iterations times on a
// shared workload over loopback TCP sites and writes the schema-v1
// perf.Artifact JSON to w. Each measured iteration opens a fresh
// cluster connection so per-iteration wire bytes are exact; the workload
// (and therefore every count metric) is identical across iterations, so
// only wall time carries spread.
func BenchSummary(ctx context.Context, scale Scale, opts BenchOptions, w io.Writer) error {
	opts = opts.withDefaults()
	n := scale.N
	if n <= 0 {
		n = opts.CapN
	}
	if n > opts.CapN {
		opts.Logf("bench-json: clamping -n %d to the artifact cap %d (raise with -bench-cap)\n", n, opts.CapN)
		n = opts.CapN
	}
	m := scale.sites()
	if m > benchSites {
		opts.Logf("bench-json: clamping site count %d to %d for the artifact\n", m, benchSites)
		m = benchSites
	}
	db, err := gen.Generate(gen.Config{
		N: n, Dims: DefaultDims, Values: gen.Independent,
		Probs: gen.UniformProb, Seed: scale.Seed,
	})
	if err != nil {
		return err
	}
	parts, err := gen.Partition(db, m, scale.Seed+1)
	if err != nil {
		return err
	}

	// Serve each partition over real loopback TCP so transport bytes are
	// the framed wire, then point one remote cluster at the daemons.
	addrs := make([]string, len(parts))
	servers := make([]*transport.Server, len(parts))
	for i, part := range parts {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := transport.NewServer(site.New(i, part, DefaultDims, 0), nil)
		go srv.Serve(lis)
		addrs[i] = lis.Addr().String()
		servers[i] = srv
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	artifact := &perf.Artifact{
		Schema: perf.SchemaVersion,
		Env:    perf.Fingerprint(),
		Config: perf.RunConfig{
			N: n, Dims: DefaultDims, Sites: m,
			Threshold: DefaultThreshold, Seed: scale.Seed,
			Transport: "loopback-tcp",
			Warmup:    opts.Warmup, Iterations: opts.Iterations,
		},
	}
	for _, algo := range []core.Algorithm{core.Baseline, core.DSUD, core.EDSUD, core.SDSUD} {
		samples, err := perf.Collect(opts.Warmup, opts.Iterations, func() (perf.Sample, error) {
			return benchIteration(ctx, addrs, algo)
		})
		if err != nil {
			return err
		}
		res := perf.NewAlgoResult(algo.String(), samples)
		artifact.Algorithms = append(artifact.Algorithms, res)
		opts.Logf("bench-json: %s: %d+%d runs, median %.1fms, %d tuples\n",
			algo, opts.Warmup, opts.Iterations,
			res.Metric(perf.MetricWallMillis).Median,
			int64(res.Metric(perf.MetricTuplesTotal).Median))
		// The progressiveness section reproduces the paper's §6 DSUD vs
		// e-DSUD delivery-curve comparison; the shipping Baseline and
		// SDSUD are out of scope for the gate.
		if algo == core.DSUD || algo == core.EDSUD {
			pr := perf.NewProgressResult(algo.String(), samples)
			artifact.Progressiveness = append(artifact.Progressiveness, pr)
			opts.Logf("bench-json: %s: progressiveness auc(bw) %.4f, ttfr %.2fms\n",
				algo, pr.AUCBandwidth.Median, pr.TTFirstMS.Median)
		}
	}
	if !opts.SkipThroughput {
		// The throughput section runs on its own delayed sites (see
		// throughput.go), not the servers above: the delay is the thing
		// being measured.
		tr, err := Throughput(ctx, ThroughputOptions{Concurrency: opts.Concurrency, Seed: scale.Seed})
		if err != nil {
			return err
		}
		artifact.Throughput = tr
		for _, r := range tr {
			opts.Logf("bench-json: throughput @%d client(s): mux %.1f q/s (%.2fx the lowest concurrency)\n",
				r.Concurrency, r.MuxQPS, r.Speedup)
		}
	}
	return artifact.Write(w)
}

// benchIteration runs one algorithm once against the TCP sites and
// returns its measured cost.
func benchIteration(ctx context.Context, addrs []string, algo core.Algorithm) (perf.Sample, error) {
	cluster, err := core.NewRemoteCluster(addrs, DefaultDims)
	if err != nil {
		return perf.Sample{}, err
	}
	start := time.Now()
	rep, err := core.Run(ctx, cluster, core.Options{
		Threshold: DefaultThreshold,
		Algorithm: algo,
	})
	wall := time.Since(start)
	closeErr := cluster.Close()
	if err != nil {
		return perf.Sample{}, err
	}
	if closeErr != nil {
		return perf.Sample{}, closeErr
	}
	bw := rep.Bandwidth
	s := perf.Sample{
		Wall:       wall,
		TuplesUp:   bw.TuplesUp,
		TuplesDown: bw.TuplesDown,
		Messages:   bw.Messages,
		WireBytes:  bw.Bytes,
		Skyline:    len(rep.Skyline),
		Rounds:     rep.Iterations,
	}
	if d := rep.Curve; d != nil {
		s.AUCBandwidth = d.AUCBandwidth
		s.AUCTime = d.AUCTime
		s.TTFirst = time.Duration(d.TTFirstNS)
		s.TTLast = time.Duration(d.TTLastNS)
	}
	return s, nil
}
