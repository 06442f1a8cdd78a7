package main

import (
	"time"

	"repro/internal/perf"
	"repro/internal/prtree"
)

// maxEvalReplays caps how many captured Evaluate feedback tuples are
// replayed; a stride over the capture keeps the sample spread over the run.
const maxEvalReplays = 4096

// kernelReplay is the prtree rows: the captured site-kernel inputs
// replayed against prtree.Bulk of the same partitions, outside any
// transport or lock. On serve-churn the partitions are the initial ones;
// inserts and deletes made during the run are not applied.
type kernelReplay struct {
	localSkylineUS float64 // p50 over the captured Inits
	localSkylineN  int
	skylineLen     float64 // mean local-skyline size at Init
	crossSkyProbUS float64 // p50 over the replayed Evaluates
	crossSkyProbN  int
	repeatShare    float64 // share of Inits whose shape already ran at that site
	// windowSkylineSum is the local-skyline size summed over the Inits of
	// the timed window (set-up excluded), the base of site.prune_yield.
	windowSkylineSum int
	windowInits      int
}

func replayKernels(w *world, rec *recorder) kernelReplay {
	trees := make(map[int]*prtree.Tree)
	tree := func(gsite int) *prtree.Tree {
		if t, ok := trees[gsite]; ok {
			return t
		}
		t := prtree.Bulk(w.tenants[gsite/sites].parts[gsite%sites], dims, 0)
		trees[gsite] = t
		return t
	}

	// Each distinct Init runs once; its time counts once per capture, so
	// the percentile is over the captured Inits without timing repeats.
	type initKey struct {
		site int
		q    float64
		dims string
	}
	type initRun struct {
		us  float64
		len int
	}
	var kr kernelReplay
	runs := make(map[initKey]initRun)
	var samples []float64
	var lenSum, repeats int
	for i, c := range rec.inits {
		k := initKey{c.site, c.key.q, dimsKey(c.key.dims)}
		run, seen := runs[k]
		if seen {
			repeats++
		} else {
			t := tree(c.site)
			start := time.Now()
			sky := t.LocalSkyline(c.key.q, c.key.dims)
			run = initRun{us: micros(time.Since(start)), len: len(sky)}
			runs[k] = run
		}
		samples = append(samples, run.us)
		lenSum += run.len
		if i >= rec.windowStart {
			kr.windowSkylineSum += run.len
			kr.windowInits++
		}
	}
	if n := len(rec.inits); n > 0 {
		kr.localSkylineUS = median(samples)
		kr.localSkylineN = n
		kr.skylineLen = float64(lenSum) / float64(n)
		kr.repeatShare = float64(repeats) / float64(n)
	}

	stride := max(1, len(rec.evals)/maxEvalReplays)
	samples = samples[:0]
	for i := 0; i < len(rec.evals); i += stride {
		c := rec.evals[i]
		t := tree(c.site)
		start := time.Now()
		t.CrossSkyProb(c.tuple, c.dims)
		samples = append(samples, micros(time.Since(start)))
	}
	if len(samples) > 0 {
		kr.crossSkyProbUS = median(samples)
		kr.crossSkyProbN = len(samples)
	}
	return kr
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return perf.Summarize(xs).Median }
