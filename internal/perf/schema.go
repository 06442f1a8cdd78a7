package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion is the current BENCH_dsud.json artifact version.
//
// v0 (unversioned, PR 2) carried one point estimate per algorithm.
// v1 carries per-metric distributions over repeated iterations, the
// run configuration, and an environment fingerprint. ReadArtifact
// transparently lifts v0 documents into v1 (single-sample
// distributions) so old baselines keep diffing.
const SchemaVersion = 1

// Metric names used by the bench harness, in artifact order. wall_ms is
// the only nondeterministic metric for a fixed seed; the rest are exact
// protocol counts and should show CV = 0 across iterations.
const (
	MetricWallMillis  = "wall_ms"
	MetricTuplesUp    = "tuples_up"
	MetricTuplesDown  = "tuples_down"
	MetricTuplesTotal = "tuples_total"
	MetricMessages    = "messages"
	MetricWireBytes   = "wire_bytes"
)

// MetricNames lists every metric in stable rendering order.
func MetricNames() []string {
	return []string{
		MetricWallMillis, MetricTuplesUp, MetricTuplesDown,
		MetricTuplesTotal, MetricMessages, MetricWireBytes,
	}
}

// TimeMetric reports whether a metric measures wall time (noisy) rather
// than a deterministic protocol count; benchdiff applies the looser
// time threshold to these.
func TimeMetric(name string) bool { return name == MetricWallMillis }

// RunConfig records the workload one artifact measured, so a diff of
// incomparable artifacts can be flagged.
type RunConfig struct {
	N          int     `json:"n"`
	Dims       int     `json:"dims"`
	Sites      int     `json:"sites"`
	Threshold  float64 `json:"threshold"`
	Seed       int64   `json:"seed"`
	Transport  string  `json:"transport"`
	Warmup     int     `json:"warmup"`
	Iterations int     `json:"iterations"`
}

// AlgoResult is one algorithm's measured cost distributions on the bench
// workload. Skyline and Rounds are protocol invariants (identical across
// iterations for a fixed seed), so they stay scalar.
type AlgoResult struct {
	Algorithm string `json:"algorithm"`
	// Skyline is the answer cardinality (iteration-invariant).
	Skyline int `json:"skyline"`
	// Rounds is the coordinator's feedback-loop iteration count
	// (iteration-invariant; 0 for the baseline).
	Rounds int `json:"rounds"`
	// Metrics maps metric name to its sample distribution.
	Metrics map[string]Dist `json:"metrics"`
}

// Metric returns the named distribution (zero Dist when absent).
func (a AlgoResult) Metric(name string) Dist { return a.Metrics[name] }

// ThroughputResult is one concurrency level of the transport throughput
// benchmark: end-to-end queries/sec through the multiplexed wire
// protocol on artificially delayed sites (the delay stands in for
// network/service time, which loopback lacks). Speedup is MuxQPS over
// the MuxQPS of the lowest concurrency level in the same run: 1.0 there
// by definition, and it grows with concurrency as the mux overlaps the
// site delays of concurrent queries on one connection per site.
type ThroughputResult struct {
	Concurrency int `json:"concurrency"`
	// Queries is the batch size behind the rates.
	Queries int `json:"queries"`
	// SiteDelayMicros is the injected per-request site service delay.
	SiteDelayMicros int64   `json:"site_delay_us"`
	MuxQPS          float64 `json:"mux_qps"`
	Speedup         float64 `json:"speedup"`
	// MaterializedQPS is the same batch served from a warm coordinator-side
	// materialized tier (Cluster.Serve) instead of a protocol round per
	// query; ServeSpeedup = MaterializedQPS / MuxQPS. Both are additive
	// within schema v1: zero in artifacts predating the serving tier.
	MaterializedQPS float64 `json:"materialized_qps,omitempty"`
	ServeSpeedup    float64 `json:"serve_speedup,omitempty"`
}

// Soak latency percentile keys (SoakResult.Latency). Each maps to a Dist
// whose samples are that percentile measured once per soak iteration, so
// the artifact captures both the tail estimate and its run-to-run spread.
const (
	SoakP50 = "p50"
	SoakP95 = "p95"
	SoakP99 = "p99"
)

// SoakPercentiles lists the latency keys in rendering order.
func SoakPercentiles() []string { return []string{SoakP50, SoakP95, SoakP99} }

// SoakResult is the sustained-load section of the artifact: an open-loop
// load generator drives mixed query+update traffic at TargetRPS for
// DurationSeconds, Iterations times, and per-iteration latency
// percentiles (milliseconds, measured from each request's *scheduled*
// arrival so coordinated omission cannot flatter the tail) land as
// distributions. Additive within schema v1, like Throughput.
type SoakResult struct {
	TargetRPS       float64 `json:"target_rps"`
	DurationSeconds float64 `json:"duration_seconds"`
	Iterations      int     `json:"iterations"`
	Workers         int     `json:"workers"`
	// Profile is the arrival-rate shape: "steady", "burst" or "ramp".
	Profile string `json:"profile"`
	// UpdateFraction is the share of offered traffic that is insert/delete
	// maintenance rather than queries.
	UpdateFraction float64 `json:"update_fraction"`
	// Outcome totals across all iterations. Deadline counts requests that
	// exceeded their per-request deadline (a subset of neither Requests-
	// only-successes nor Errors: the three classes partition the offered
	// load: Requests = ok + Errors + Deadline).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Deadline int64 `json:"deadline"`
	// ThroughputQPS is completed-ok queries/sec per iteration.
	ThroughputQPS Dist `json:"throughput_qps"`
	// Latency maps SoakP50/P95/P99 to per-iteration distributions in
	// milliseconds, over successful requests.
	Latency map[string]Dist `json:"latency"`
}

// ErrorRate returns (errors+deadline)/requests (0 when no requests ran).
func (s *SoakResult) ErrorRate() float64 {
	if s == nil || s.Requests == 0 {
		return 0
	}
	return float64(s.Errors+s.Deadline) / float64(s.Requests)
}

// Percentile returns the named latency distribution (zero Dist when
// absent or nil).
func (s *SoakResult) Percentile(key string) Dist {
	if s == nil {
		return Dist{}
	}
	return s.Latency[key]
}

// ProgressResult is one algorithm's delivery-curve progressiveness on
// the bench workload — the artifact form of the paper's §6 Figs. 12–13
// comparison. AUCBandwidth is count-based and hence deterministic for a
// fixed seed (CV = 0); it is the metric -max-auc-regress gates.
// AUCTime crosses machines like wall time does and is informational.
type ProgressResult struct {
	Algorithm string `json:"algorithm"`
	// Results is the delivered-result count (iteration-invariant).
	Results int `json:"results"`
	// AUCBandwidth / AUCTime are the normalized progress AUCs (1.0 =
	// every result delivered before any cost was paid).
	AUCBandwidth Dist `json:"auc_bandwidth"`
	AUCTime      Dist `json:"auc_time"`
	// TTFirstMS / TTLastMS are time-to-first/last delivery per iteration.
	TTFirstMS Dist `json:"ttf_ms"`
	TTLastMS  Dist `json:"ttl_ms"`
}

// Artifact is the full versioned BENCH_dsud.json document. Throughput,
// Soak and Progressiveness are additive within schema v1: absent in
// older artifacts, present since the multiplexed transport, the soak
// harness and the delivery-curve digests landed respectively.
type Artifact struct {
	Schema          int                `json:"schema_version"`
	Env             Env                `json:"env"`
	Config          RunConfig          `json:"config"`
	Algorithms      []AlgoResult       `json:"algorithms"`
	Throughput      []ThroughputResult `json:"throughput,omitempty"`
	Soak            *SoakResult        `json:"soak,omitempty"`
	Progressiveness []ProgressResult   `json:"progressiveness,omitempty"`
}

// Progress returns the named algorithm's progressiveness entry, or nil
// when absent (pre-progress artifacts).
func (a *Artifact) Progress(name string) *ProgressResult {
	for i := range a.Progressiveness {
		if a.Progressiveness[i].Algorithm == name {
			return &a.Progressiveness[i]
		}
	}
	return nil
}

// MaxThroughput returns the highest-concurrency throughput entry, or nil
// when the artifact carries none (pre-mux artifacts).
func (a *Artifact) MaxThroughput() *ThroughputResult {
	var best *ThroughputResult
	for i := range a.Throughput {
		if best == nil || a.Throughput[i].Concurrency > best.Concurrency {
			best = &a.Throughput[i]
		}
	}
	return best
}

// Algo returns the named algorithm's result, or nil when absent.
func (a *Artifact) Algo(name string) *AlgoResult {
	for i := range a.Algorithms {
		if a.Algorithms[i].Algorithm == name {
			return &a.Algorithms[i]
		}
	}
	return nil
}

// Write renders the artifact as indented JSON.
func (a *Artifact) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// v0Algo mirrors PR 2's unversioned per-algorithm point estimate.
type v0Algo struct {
	Algorithm  string  `json:"algorithm"`
	WallMillis float64 `json:"wall_ms"`
	Skyline    int     `json:"skyline"`
	TuplesUp   int64   `json:"tuples_up"`
	TuplesDown int64   `json:"tuples_down"`
	Tuples     int64   `json:"tuples_total"`
	Messages   int64   `json:"messages"`
	WireBytes  int64   `json:"wire_bytes"`
	Iterations int     `json:"iterations"`
}

// v0Result mirrors PR 2's unversioned document header.
type v0Result struct {
	N          int      `json:"n"`
	Dims       int      `json:"dims"`
	Sites      int      `json:"sites"`
	Threshold  float64  `json:"threshold"`
	Seed       int64    `json:"seed"`
	Transport  string   `json:"transport"`
	Algorithms []v0Algo `json:"algorithms"`
}

// ReadArtifact parses a BENCH_dsud.json document of any known schema
// version, upgrading v0 point-estimate artifacts to v1 single-sample
// distributions in memory.
func ReadArtifact(data []byte) (*Artifact, error) {
	var probe struct {
		Schema int `json:"schema_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("perf: artifact is not valid JSON: %w", err)
	}
	switch probe.Schema {
	case 0:
		var v0 v0Result
		if err := json.Unmarshal(data, &v0); err != nil {
			return nil, fmt.Errorf("perf: v0 artifact: %w", err)
		}
		return upgradeV0(v0), nil
	case SchemaVersion:
		var a Artifact
		if err := json.Unmarshal(data, &a); err != nil {
			return nil, fmt.Errorf("perf: v%d artifact: %w", SchemaVersion, err)
		}
		return &a, nil
	default:
		return nil, fmt.Errorf("perf: unsupported artifact schema_version %d (this build reads <= %d)", probe.Schema, SchemaVersion)
	}
}

// ReadArtifactFile is ReadArtifact over a file path.
func ReadArtifactFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := ReadArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// upgradeV0 lifts a point-estimate artifact into the distribution schema:
// every metric becomes an n=1 distribution with zero spread, so the
// differ's CV-scaled rule degrades to the raw threshold floor.
func upgradeV0(v0 v0Result) *Artifact {
	a := &Artifact{
		Schema: SchemaVersion,
		Config: RunConfig{
			N: v0.N, Dims: v0.Dims, Sites: v0.Sites,
			Threshold: v0.Threshold, Seed: v0.Seed,
			Transport: v0.Transport, Iterations: 1,
		},
	}
	for _, alg := range v0.Algorithms {
		a.Algorithms = append(a.Algorithms, AlgoResult{
			Algorithm: alg.Algorithm,
			Skyline:   alg.Skyline,
			Rounds:    alg.Iterations,
			Metrics: map[string]Dist{
				MetricWallMillis:  Point(alg.WallMillis),
				MetricTuplesUp:    Point(float64(alg.TuplesUp)),
				MetricTuplesDown:  Point(float64(alg.TuplesDown)),
				MetricTuplesTotal: Point(float64(alg.Tuples)),
				MetricMessages:    Point(float64(alg.Messages)),
				MetricWireBytes:   Point(float64(alg.WireBytes)),
			},
		})
	}
	return a
}
