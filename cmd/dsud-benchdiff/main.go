// Command dsud-benchdiff compares two BENCH_dsud.json benchmark
// artifacts (written by dsud-bench) and reports per-algorithm,
// per-metric deltas as a markdown table suitable for a PR comment.
//
// Usage:
//
//	dsud-benchdiff [flags] old.json new.json
//
// A delta is significant when the relative median movement exceeds the
// larger of a raw floor (-threshold for protocol counts, -time-threshold
// for wall time) and -cv-scale × the worse coefficient of variation of
// the two runs — so noisy series need a proportionally larger movement
// to trip the gate, and deterministic counts are held to the tight
// floor. Reads both v0 (point-estimate) and v1 (distribution) artifacts.
//
// Exit status: 0 when no metric regressed significantly, 1 on at least
// one significant regression, 2 on usage or artifact errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/perf"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		threshold       = flag.Float64("threshold", 0.05, "relative significance floor for count metrics (0.05 = 5%)")
		timeThreshold   = flag.Float64("time-threshold", 0.25, "relative significance floor for wall-time metrics")
		cvScale         = flag.Float64("cv-scale", 3, "noise scaling: limit = max(floor, cv-scale × max CV)")
		quiet           = flag.Bool("quiet", false, "suppress the markdown table; exit status only")
		minMuxSpeedup   = flag.Float64("min-mux-speedup", 0, "fail unless the new artifact's highest-concurrency mux throughput is at least this multiple of its lowest-concurrency mux throughput (0 = no gate)")
		maxP99Regress   = flag.Float64("max-p99-regress", 0, "fail when the soak p99 latency median regressed by more than this relative amount, e.g. 0.25 = 25% (0 = no gate; requires a soak section in both artifacts)")
		maxAUCRegress   = flag.Float64("max-auc-regress", 0, "fail when any algorithm's bandwidth-AUC median dropped by more than this relative amount, e.g. 0.05 = 5% (0 = no gate; requires a progressiveness section in both artifacts)")
		minServeSpeedup = flag.Float64("min-serve-speedup", 0, "fail unless the new artifact's highest-concurrency throughput shows at least this materialized-over-mux speedup (0 = no gate)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dsud-benchdiff [flags] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		return 2
	}

	oldA, err := perf.ReadArtifactFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-benchdiff: %v\n", err)
		return 2
	}
	newA, err := perf.ReadArtifactFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-benchdiff: %v\n", err)
		return 2
	}

	deltas := perf.Diff(oldA, newA, perf.DiffOptions{
		Threshold:     *threshold,
		TimeThreshold: *timeThreshold,
		CVScale:       *cvScale,
	})
	if len(deltas) == 0 {
		fmt.Fprintf(os.Stderr, "dsud-benchdiff: the artifacts share no (algorithm, metric) pairs\n")
		return 2
	}
	if !*quiet {
		if err := perf.WriteMarkdown(os.Stdout, oldA, newA, deltas); err != nil {
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: %v\n", err)
			return 2
		}
	}
	status := 0
	if n := perf.Regressions(deltas); n > 0 {
		fmt.Fprintf(os.Stderr, "dsud-benchdiff: %d significant regression(s)\n", n)
		status = 1
	}
	if *minMuxSpeedup > 0 {
		tr := newA.MaxThroughput()
		switch {
		case tr == nil:
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: -min-mux-speedup: new artifact carries no throughput section (run dsud-bench with -concurrency)\n")
			return 2
		case tr.Speedup < *minMuxSpeedup:
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: mux scaling %.2fx at %d client(s) is below the %.2fx gate\n",
				tr.Speedup, tr.Concurrency, *minMuxSpeedup)
			status = 1
		default:
			if !*quiet {
				fmt.Printf("\nmux scaling gate: %.2fx at %d client(s) ≥ %.2fx ✔\n",
					tr.Speedup, tr.Concurrency, *minMuxSpeedup)
			}
		}
	}
	if *minServeSpeedup > 0 {
		tr := newA.MaxThroughput()
		switch {
		case tr == nil || tr.ServeSpeedup == 0:
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: -min-serve-speedup: new artifact carries no materialized throughput (run dsud-bench with -concurrency on a build with the serving tier)\n")
			return 2
		case tr.ServeSpeedup < *minServeSpeedup:
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: materialized serving speedup %.1fx at %d client(s) is below the %.1fx gate\n",
				tr.ServeSpeedup, tr.Concurrency, *minServeSpeedup)
			status = 1
		default:
			if !*quiet {
				fmt.Printf("\nmaterialized serving gate: %.1fx over mux at %d client(s) ≥ %.1fx ✔\n",
					tr.ServeSpeedup, tr.Concurrency, *minServeSpeedup)
			}
		}
	}
	if *maxP99Regress > 0 {
		oldMed, newMed, rel, ok := perf.SoakP99Delta(oldA, newA)
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: -max-p99-regress: both artifacts need a soak section with a p99 distribution (run dsud-loadgen -artifact)\n")
			return 2
		case rel > *maxP99Regress:
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: soak p99 regressed %.1f%% (%.2fms → %.2fms), over the %.1f%% gate\n",
				rel*100, oldMed, newMed, *maxP99Regress*100)
			status = 1
		default:
			if !*quiet {
				fmt.Printf("\nsoak p99 gate: %+.1f%% (%.2fms → %.2fms) within %.1f%% ✔\n",
					rel*100, oldMed, newMed, *maxP99Regress*100)
			}
		}
	}
	if *maxAUCRegress > 0 {
		deltas := perf.AUCDeltas(oldA, newA)
		if len(deltas) == 0 {
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: -max-auc-regress: both artifacts need a progressiveness section (run dsud-bench -bench-json)\n")
			return 2
		}
		worst := deltas[0]
		for _, d := range deltas[1:] {
			if d.Drop > worst.Drop {
				worst = d
			}
		}
		if worst.Drop > *maxAUCRegress {
			fmt.Fprintf(os.Stderr, "dsud-benchdiff: %s bandwidth AUC dropped %.1f%% (%.4f → %.4f), over the %.1f%% gate — the query got less progressive\n",
				worst.Algorithm, worst.Drop*100, worst.Old, worst.New, *maxAUCRegress*100)
			status = 1
		} else if !*quiet {
			fmt.Printf("\nprogressiveness gate: worst AUC drop %+.1f%% (%s, %.4f → %.4f) within %.1f%% ✔\n",
				worst.Drop*100, worst.Algorithm, worst.Old, worst.New, *maxAUCRegress*100)
		}
	}
	return status
}
