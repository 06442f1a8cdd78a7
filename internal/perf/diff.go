package perf

import (
	"fmt"
	"io"
	"math"
)

// Verdict classifies one metric's movement between two artifacts.
type Verdict int

// Verdicts. Lower is better for every bench metric, so Regression means
// the new artifact's median is significantly higher.
const (
	WithinNoise Verdict = iota
	Improvement
	Regression
)

func (v Verdict) String() string {
	switch v {
	case WithinNoise:
		return "within-noise"
	case Improvement:
		return "improvement"
	case Regression:
		return "regression"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// DiffOptions tunes the significance rule. A delta is significant when
// the relative median movement exceeds the larger of a raw floor
// (Threshold for count metrics, TimeThreshold for wall time) and
// CVScale × the worse of the two coefficients of variation — so noisy
// series need a proportionally larger movement to trip the gate, and a
// deterministic series (CV 0) falls back to the raw floor alone.
type DiffOptions struct {
	// Threshold is the relative floor for deterministic count metrics
	// (default 0.05 = 5%).
	Threshold float64
	// TimeThreshold is the relative floor for wall-time metrics
	// (default 0.25 = 25%); time is scheduler-noisy even on one machine.
	TimeThreshold float64
	// CVScale multiplies max(oldCV, newCV) into the significance limit
	// (default 3).
	CVScale float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Threshold == 0 {
		o.Threshold = 0.05
	}
	if o.TimeThreshold == 0 {
		o.TimeThreshold = 0.25
	}
	if o.CVScale == 0 {
		o.CVScale = 3
	}
	return o
}

// MetricDelta is one (algorithm, metric) comparison.
type MetricDelta struct {
	Algorithm string
	Metric    string
	Old, New  Dist
	// Rel is the relative median movement (new−old)/old; +Inf when the
	// metric appeared from a zero baseline.
	Rel float64
	// Limit is the significance threshold this comparison was held to.
	Limit   float64
	Verdict Verdict
}

// Diff compares two artifacts per algorithm and metric, in stable
// (artifact, MetricNames) order. Algorithms or metrics present in only
// one artifact are skipped — the harness always emits the full set, so
// asymmetry only arises when diffing across harness versions, where a
// hard failure would block the upgrade itself.
func Diff(oldA, newA *Artifact, opts DiffOptions) []MetricDelta {
	opts = opts.withDefaults()
	var out []MetricDelta
	for _, na := range newA.Algorithms {
		oa := oldA.Algo(na.Algorithm)
		if oa == nil {
			continue
		}
		for _, metric := range MetricNames() {
			od, ok := oa.Metrics[metric]
			if !ok {
				continue
			}
			nd, ok := na.Metrics[metric]
			if !ok {
				continue
			}
			out = append(out, compare(na.Algorithm, metric, od, nd, opts))
		}
	}
	return out
}

func compare(algo, metric string, od, nd Dist, opts DiffOptions) MetricDelta {
	d := MetricDelta{Algorithm: algo, Metric: metric, Old: od, New: nd}
	floor := opts.Threshold
	if TimeMetric(metric) {
		floor = opts.TimeThreshold
	}
	d.Limit = math.Max(floor, opts.CVScale*math.Max(od.CV, nd.CV))
	switch {
	case od.Median == 0 && nd.Median == 0:
		d.Rel = 0
	case od.Median == 0:
		d.Rel = math.Inf(1)
	default:
		d.Rel = (nd.Median - od.Median) / od.Median
	}
	switch {
	case d.Rel > d.Limit:
		d.Verdict = Regression
	case -d.Rel > d.Limit:
		d.Verdict = Improvement
	}
	return d
}

// Regressions counts deltas judged significant regressions.
func Regressions(deltas []MetricDelta) int {
	n := 0
	for _, d := range deltas {
		if d.Verdict == Regression {
			n++
		}
	}
	return n
}

// WriteMarkdown renders the comparison as a GitHub-flavoured markdown
// report (suitable for a PR comment): an environment/config header, one
// table row per (algorithm, metric), and a verdict summary line.
func WriteMarkdown(w io.Writer, oldA, newA *Artifact, deltas []MetricDelta) error {
	fmt.Fprintf(w, "### Benchmark comparison\n\n")
	fmt.Fprintf(w, "old: %s · new: %s\n\n", describe(oldA), describe(newA))
	if oldA.Config != newA.Config {
		fmt.Fprintf(w, "> **warning**: run configurations differ (old %+v, new %+v) — deltas may reflect the workload, not the code.\n\n",
			oldA.Config, newA.Config)
	}
	fmt.Fprintf(w, "| algorithm | metric | old median | new median | Δ | limit | verdict |\n")
	fmt.Fprintf(w, "|---|---|---:|---:|---:|---:|---|\n")
	for _, d := range deltas {
		mark := ""
		switch d.Verdict {
		case Regression:
			mark = " ❌"
		case Improvement:
			mark = " ✅"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | ±%.1f%% | %s%s |\n",
			d.Algorithm, d.Metric, formatValue(d.Metric, d.Old.Median),
			formatValue(d.Metric, d.New.Median), formatRel(d.Rel),
			d.Limit*100, d.Verdict, mark)
	}
	reg, imp := Regressions(deltas), 0
	for _, d := range deltas {
		if d.Verdict == Improvement {
			imp++
		}
	}
	fmt.Fprintf(w, "\n%d comparison(s): %d regression(s), %d improvement(s), %d within noise.\n",
		len(deltas), reg, imp, len(deltas)-reg-imp)
	writeThroughputMarkdown(w, oldA, newA)
	writeSoakMarkdown(w, oldA, newA)
	writeProgressMarkdown(w, oldA, newA)
	return nil
}

// AUCDelta is one algorithm's bandwidth-AUC movement between two
// artifacts. Drop is (old−new)/old: positive means the new build
// delivers results later along the bandwidth axis — less progressive —
// which is the direction -max-auc-regress gates (the sign convention is
// inverted versus latency deltas, where higher is worse).
type AUCDelta struct {
	Algorithm string
	Old, New  float64 // bandwidth-AUC medians
	Drop      float64
}

// AUCDeltas compares the bandwidth-AUC medians of every algorithm
// present in both artifacts' progressiveness sections. An empty slice
// means at least one side predates the section, leaving the gate
// decision to the caller.
func AUCDeltas(oldA, newA *Artifact) []AUCDelta {
	var out []AUCDelta
	for i := range oldA.Progressiveness {
		op := &oldA.Progressiveness[i]
		np := newA.Progress(op.Algorithm)
		if np == nil || op.AUCBandwidth.N == 0 || np.AUCBandwidth.N == 0 {
			continue
		}
		d := AUCDelta{Algorithm: op.Algorithm, Old: op.AUCBandwidth.Median, New: np.AUCBandwidth.Median}
		switch {
		case d.Old == 0 && d.New == 0:
			d.Drop = 0
		case d.Old == 0:
			d.Drop = math.Inf(-1)
		default:
			d.Drop = (d.Old - d.New) / d.Old
		}
		out = append(out, d)
	}
	return out
}

// writeProgressMarkdown renders the delivery-curve progressiveness
// section when either artifact carries one.
func writeProgressMarkdown(w io.Writer, oldA, newA *Artifact) {
	if len(oldA.Progressiveness) == 0 && len(newA.Progressiveness) == 0 {
		return
	}
	fmt.Fprintf(w, "\n### Progressiveness (delivery-curve AUC)\n\n")
	fmt.Fprintf(w, "| algorithm | old auc(bw) | new auc(bw) | drop | old ttfr ms | new ttfr ms |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|---:|\n")
	seen := map[string]bool{}
	row := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		op, np := oldA.Progress(name), newA.Progress(name)
		cell := func(p *ProgressResult, f func(*ProgressResult) string) string {
			if p == nil {
				return "—"
			}
			return f(p)
		}
		bw := func(p *ProgressResult) string { return fmt.Sprintf("%.4f", p.AUCBandwidth.Median) }
		ttf := func(p *ProgressResult) string { return fmt.Sprintf("%.2f", p.TTFirstMS.Median) }
		drop := "—"
		if op != nil && np != nil && op.AUCBandwidth.Median != 0 {
			drop = fmt.Sprintf("%+.2f%%", (op.AUCBandwidth.Median-np.AUCBandwidth.Median)/op.AUCBandwidth.Median*100)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			name, cell(op, bw), cell(np, bw), drop, cell(op, ttf), cell(np, ttf))
	}
	for i := range oldA.Progressiveness {
		row(oldA.Progressiveness[i].Algorithm)
	}
	for i := range newA.Progressiveness {
		row(newA.Progressiveness[i].Algorithm)
	}
}

// SoakP99Delta compares the two artifacts' soak p99 medians and reports
// the relative movement (new−old)/old — the figure behind
// dsud-benchdiff's -max-p99-regress gate. ok is false when either side
// lacks a soak section with a p99 distribution (pre-soak baselines),
// leaving the gate decision to the caller.
func SoakP99Delta(oldA, newA *Artifact) (oldMed, newMed, rel float64, ok bool) {
	od := oldA.Soak.Percentile(SoakP99)
	nd := newA.Soak.Percentile(SoakP99)
	if od.N == 0 || nd.N == 0 {
		return 0, 0, 0, false
	}
	oldMed, newMed = od.Median, nd.Median
	switch {
	case oldMed == 0 && newMed == 0:
		rel = 0
	case oldMed == 0:
		rel = math.Inf(1)
	default:
		rel = (newMed - oldMed) / oldMed
	}
	return oldMed, newMed, rel, true
}

// writeSoakMarkdown renders the sustained-load section when either
// artifact carries one; a missing side renders as "—".
func writeSoakMarkdown(w io.Writer, oldA, newA *Artifact) {
	if oldA.Soak == nil && newA.Soak == nil {
		return
	}
	fmt.Fprintf(w, "\n### Sustained-load soak (open-loop loadgen)\n\n")
	fmt.Fprintf(w, "| | old | new |\n|---|---:|---:|\n")
	cell := func(s *SoakResult, f func(*SoakResult) string) string {
		if s == nil {
			return "—"
		}
		return f(s)
	}
	rows := []struct {
		label string
		f     func(*SoakResult) string
	}{
		{"target RPS", func(s *SoakResult) string { return fmt.Sprintf("%.0f", s.TargetRPS) }},
		{"profile", func(s *SoakResult) string { return s.Profile }},
		{"throughput q/s (median)", func(s *SoakResult) string { return fmt.Sprintf("%.1f", s.ThroughputQPS.Median) }},
		{"error rate", func(s *SoakResult) string { return fmt.Sprintf("%.3f%%", s.ErrorRate()*100) }},
	}
	for _, p := range SoakPercentiles() {
		p := p
		rows = append(rows, struct {
			label string
			f     func(*SoakResult) string
		}{p + " (median ms)", func(s *SoakResult) string {
			d := s.Percentile(p)
			if d.N == 0 {
				return "—"
			}
			return fmt.Sprintf("%.2f", d.Median)
		}})
	}
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %s |\n", r.label, cell(oldA.Soak, r.f), cell(newA.Soak, r.f))
	}
	if _, _, rel, ok := SoakP99Delta(oldA, newA); ok {
		fmt.Fprintf(w, "\nsoak p99 movement: %s\n", formatRel(rel))
	}
}

// writeThroughputMarkdown renders the concurrent-query throughput section
// when either artifact carries one. Levels are matched by concurrency;
// a missing side renders as "—" (old pre-mux baselines have no section).
func writeThroughputMarkdown(w io.Writer, oldA, newA *Artifact) {
	if len(oldA.Throughput) == 0 && len(newA.Throughput) == 0 {
		return
	}
	at := func(a *Artifact, c int) *ThroughputResult {
		for i := range a.Throughput {
			if a.Throughput[i].Concurrency == c {
				return &a.Throughput[i]
			}
		}
		return nil
	}
	levels := make([]int, 0, len(newA.Throughput)+len(oldA.Throughput))
	seen := map[int]bool{}
	for _, a := range []*Artifact{newA, oldA} {
		for _, t := range a.Throughput {
			if !seen[t.Concurrency] {
				seen[t.Concurrency] = true
				levels = append(levels, t.Concurrency)
			}
		}
	}
	fmt.Fprintf(w, "\n### Concurrent-query throughput (mux scaling over the lowest concurrency, materialized serving)\n\n")
	fmt.Fprintf(w, "| clients | old mux q/s | new mux q/s | old scaling | new scaling | old serve q/s | new serve q/s | old serve× | new serve× |\n")
	fmt.Fprintf(w, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, c := range levels {
		o, n := at(oldA, c), at(newA, c)
		cell := func(t *ThroughputResult, f func(*ThroughputResult) string) string {
			if t == nil {
				return "—"
			}
			return f(t)
		}
		mux := func(t *ThroughputResult) string { return fmt.Sprintf("%.1f", t.MuxQPS) }
		spd := func(t *ThroughputResult) string { return fmt.Sprintf("%.2fx", t.Speedup) }
		// Serve columns render "—" for artifacts predating the serving tier.
		srv := func(t *ThroughputResult) string {
			if t.MaterializedQPS == 0 {
				return "—"
			}
			return fmt.Sprintf("%.1f", t.MaterializedQPS)
		}
		srvX := func(t *ThroughputResult) string {
			if t.ServeSpeedup == 0 {
				return "—"
			}
			return fmt.Sprintf("%.1fx", t.ServeSpeedup)
		}
		fmt.Fprintf(w, "| %d | %s | %s | %s | %s | %s | %s | %s | %s |\n",
			c, cell(o, mux), cell(n, mux), cell(o, spd), cell(n, spd),
			cell(o, srv), cell(n, srv), cell(o, srvX), cell(n, srvX))
	}
}

// describe labels one artifact for the report header.
func describe(a *Artifact) string {
	sha := a.Env.GitSHA
	if sha == "" {
		sha = "unknown-sha"
	}
	return fmt.Sprintf("`%s` (n=%d, %d iteration(s), %s/%s)",
		sha, a.Config.N, a.Config.Iterations, a.Env.GOOS, a.Env.GOARCH)
}

func formatValue(metric string, v float64) string {
	if TimeMetric(metric) {
		return fmt.Sprintf("%.2fms", v)
	}
	return fmt.Sprintf("%.0f", v)
}

func formatRel(rel float64) string {
	if math.IsInf(rel, 1) {
		return "+∞"
	}
	return fmt.Sprintf("%+.1f%%", rel*100)
}
