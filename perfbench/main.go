// Command perfbench is the repository benchmark. One run sets up one
// workload against in-process site servers on loopback TCP, drives a
// fixed, seeded sequence of operations through the public dsq API,
// checks every answer against a brute-force oracle, and prints its
// metrics. See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/dsq"
	"repro/internal/transport"
)

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 5

// runTimeout bounds a whole run, so a hang fails the run instead of
// blocking it.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	spec    spec
	seed    int64
	seconds int
	trace   bool
	gitSHA  string
	// badPruneSite, when >= 0, turns on the engine's unsound-prune fault
	// on that site of every tenant, so tests can show the answer check
	// fails. Never set from the command line.
	badPruneSite int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal run length; sizes the fixed operation count")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	gitSHA := fs.String("git-sha", "unknown", "commit the binary was built from (set by run.sh)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, gitSHA: *gitSHA, badPruneSite: -1}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: answer check failed: %v\n", res.checkErr)
	}
	if err := res.print(stdout, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if res.checkErr != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pass is one measured execution of the workload: its set-ups, the timed
// window, and what the window produced.
type pass struct {
	w      *world
	setups []setupTimes
	window time.Duration

	ops     []queryOp
	queries []queryOutcome

	ups   []update
	churn churnOutcome
	// meter and serveStats are the serve-churn window's deltas of the
	// cluster's bandwidth meter and the serving tier's counters.
	meter      transport.Snapshot
	serveStats dsq.ServeStats

	rssMiB       float64
	runtimeDelta runtimeSample
}

// result is what one invocation prints.
type result struct {
	attempted, failed int
	checkErr          error
	e2e, report       metricList
	layers, fullLayer metricList
}

func execute(cfg config) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	plain, err := measure(ctx, cfg, nil, setupRepeats)
	if err != nil {
		return nil, err
	}
	res := &result{e2e: endToEnd(plain)}
	res.report = reportMetrics(plain, res.e2e)
	res.attempted, res.failed = plain.counts()
	or := buildOracle(plain.w)
	res.checkErr = check(ctx, plain, or)
	plain.w.close()
	if !cfg.trace || res.checkErr != nil {
		return res, nil
	}

	rec := newRecorder()
	traced, err := measure(ctx, cfg, rec, 1)
	if err != nil {
		return nil, err
	}
	defer traced.w.close()
	if err := check(ctx, traced, or); err != nil {
		res.checkErr = fmt.Errorf("traced run: %w", err)
		return res, nil
	}
	kr := replayKernels(traced.w, rec)
	res.layers, res.fullLayer = layerRows(traced, plain, rec, kr)
	return res, nil
}

// measure sets the workload up (repeats times, keeping the last) and runs
// its timed window. A non-nil rec traces the run; its set-up traffic is
// dropped before the window.
func measure(ctx context.Context, cfg config, rec *recorder, repeats int) (*pass, error) {
	sp := cfg.spec
	p := &pass{}
	for i := 0; i < repeats; i++ {
		if p.w != nil {
			p.w.close()
		}
		runtime.GC()
		w, err := setupWorld(ctx, sp, cfg.seed, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.w = w
		p.setups = append(p.setups, w.setup)
	}
	if cfg.badPruneSite >= 0 {
		for _, tn := range p.w.tenants {
			tn.engines[cfg.badPruneSite].TestingForceBadPrune(true)
		}
	}
	count := sp.opCount(cfg.seconds)
	if sp.serve {
		ups, err := sp.updates(cfg.seed, count)
		if err != nil {
			p.w.close()
			return nil, err
		}
		p.ups = ups
	} else {
		p.ops = sp.queryOps(cfg.seed, count)
	}
	if rec != nil {
		rec.reset()
	}

	// Collect set-up garbage now, so no window starts with a collection
	// the set-ups left behind.
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	if sp.serve {
		meter0, stats0 := p.w.serveTotals()
		p.churn = p.w.runChurn(ctx, p.ups, sp.clients(), cfg.seed, rec)
		meter1, stats1 := p.w.serveTotals()
		p.meter = meter1.Sub(meter0)
		p.serveStats = dsq.ServeStats{
			Hits: stats1.Hits - stats0.Hits, Misses: stats1.Misses - stats0.Misses,
			Refreshes: stats1.Refreshes - stats0.Refreshes, Coalesced: stats1.Coalesced - stats0.Coalesced,
		}
	} else {
		p.queries = p.w.runQueries(ctx, p.ops, sp.clients(), rec)
	}
	p.window = time.Since(start)
	if rec != nil {
		rec.off.Store(true)
	}
	after := readRuntime()
	p.runtimeDelta = runtimeSample{
		mallocs: after.mallocs - before.mallocs,
		gcCPU:   after.gcCPU - before.gcCPU,
		allCPU:  after.allCPU - before.allCPU,
	}
	p.rssMiB = peakRSSMiB()
	return p, nil
}

// check runs the answer check of a pass.
func check(ctx context.Context, p *pass, or oracle) error {
	if p.w.spec.serve {
		return checkChurn(ctx, p.w, p.ups, p.churn, or)
	}
	return checkQueries(p.w, or, p.ops, p.queries)
}

// print writes the full report as one JSON line, then the result line,
// which must be the last line of output.
func (r *result) print(w io.Writer, cfg config) error {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n,omitempty"`
	}
	asMap := func(ms metricList, withN bool) map[string]entry {
		out := make(map[string]entry, len(ms))
		for _, m := range ms {
			e := entry{Value: m.value, Unit: m.unit}
			if withN {
				e.N = m.n
			}
			out[m.name] = e
		}
		return out
	}
	sp := cfg.spec
	report := map[string]any{
		"report":        "perfbench",
		"workload":      sp.name,
		"seed":          cfg.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"env": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"git_sha":    cfg.gitSHA,
		},
		"config": map[string]any{
			"values": sp.values.String(), "n_per_tenant": sp.n, "tenants": sp.tenants,
			"sites_per_tenant": sites, "dims": dims,
			"clients": sp.clients(), "operations": sp.opCount(cfg.seconds),
			"setup_repeats": setupRepeats,
		},
		"correct":  r.checkErr == nil,
		"metrics":  asMap(r.report, true),
		"gated":    asMap(r.e2e, true),
		"attempts": map[string]int{"attempted": r.attempted, "failed": r.failed},
	}
	if r.checkErr != nil {
		report["check_error"] = r.checkErr.Error()
	}
	if cfg.trace && r.fullLayer != nil {
		report["layers"] = asMap(r.fullLayer, true)
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))

	gated := r.e2e
	if cfg.trace && r.layers != nil {
		gated = r.layers
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{r.checkErr == nil, r.attempted, r.failed, asMap(gated, false)})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(last))
	return err
}
