package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/transport"
)

// metric is one named measurement. n is the number of samples behind it
// (operations for rates and means, observations for percentiles).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type metricList []metric

func (m *metricList) add(name string, value float64, unit string, n int) {
	*m = append(*m, metric{name, value, unit, n})
}

func (m metricList) get(name string) metric {
	for _, x := range m {
		if x.name == name {
			return x
		}
	}
	panic("no metric " + name)
}

// pct returns the p-quantile of ds in the given unit (0 when empty).
func pct(ds []time.Duration, p float64, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(xs)
	return perf.Percentile(xs, p)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a point-in-time reading of the Go runtime counters the
// runtime rows are deltas of.
type runtimeSample struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rs := runtimeSample{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.allCPU = s[1].Value.Float64()
	}
	return rs
}

// peakRSSMiB reads the process's peak resident set (VmHWM) on Linux, and
// falls back to the memory the Go runtime has obtained from the OS.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// endToEnd returns the metrics BENCHMARK.json gates, which every workload
// reports: the query path (a protocol query on proto-cpu, a materialized
// read on serve-churn) and the protocol operations (the queries on
// proto-cpu, the inserts and deletes on serve-churn). There is no protocol
// operation p90: on proto-cpu it is query_p90_ms, and on serve-churn it is
// the median delete, which moved by up to 21% between runs on a shared
// 2-CPU VM; the full report keeps it as update_p90_ms.
func endToEnd(p *pass) metricList {
	var m metricList
	m.add("setup_s", p.setupSeconds(), "s", len(p.setups))
	q, first, qps := p.queryPath()
	m.add("query_p50_ms", pct(q, 0.5, time.Millisecond), "ms", len(q))
	m.add("query_p90_ms", pct(q, 0.9, time.Millisecond), "ms", len(q))
	m.add("query_qps", qps, "1/s", len(q))
	m.add("ttfr_p50_ms", pct(first, 0.5, time.Millisecond), "ms", len(first))
	lat, cost, n := p.protocolOps()
	m.add("protocol_op_p50_ms", pct(lat, 0.5, time.Millisecond), "ms", len(lat))
	m.add("tuples_per_protocol_op", ratio(float64(cost.Tuples()), float64(n)), "tuples", n)
	m.add("bytes_per_protocol_op", ratio(float64(cost.Bytes), float64(n)), "B", n)
	m.add("rss_peak_mb", p.rssMiB, "MiB", 1)
	return m
}

// reportMetrics returns the full report's end-to-end metrics: the gated
// ones, the workload's own names for those that have one, and the metrics
// only one workload has.
func reportMetrics(p *pass, e2e metricList) metricList {
	m := append(metricList(nil), e2e...)
	alias := func(name, of string, scale float64, unit string) {
		x := e2e.get(of)
		m.add(name, x.value*scale, unit, x.n)
	}
	if p.w.spec.serve {
		c := p.churn
		alias("read_p50_us", "query_p50_ms", 1e3, "us")
		m.add("read_p99_us", pct(c.readLat, 0.99, time.Microsecond), "us", len(c.readLat))
		alias("read_qps", "query_qps", 1, "1/s")
		alias("update_p50_ms", "protocol_op_p50_ms", 1, "ms")
		m.add("update_p90_ms", pct(c.updateLat, 0.9, time.Millisecond), "ms", len(c.updateLat))
		m.add("writer_lag_p50_ms", pct(c.lag, 0.5, time.Millisecond), "ms", len(c.lag))
		m.add("writer_lag_max_ms", pct(c.lag, 1, time.Millisecond), "ms", len(c.lag))
	} else {
		alias("tuples_per_query", "tuples_per_protocol_op", 1, "tuples")
		alias("wire_bytes_per_query", "bytes_per_protocol_op", 1, "B")
		var depth, n int
		for _, o := range p.queries {
			if o.err == nil {
				depth += 2 + o.rep.Broadcasts + o.rep.Refills
				n++
			}
		}
		m.add("round_trips_per_query", ratio(float64(depth), float64(n)), "count", n)
	}
	attempted, failed := p.counts()
	m.add("failed_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	return m
}

// setupSeconds is the median set-up time over the run's set-ups.
func (p *pass) setupSeconds() float64 {
	xs := make([]float64, len(p.setups))
	for i, s := range p.setups {
		xs[i] = s.total.Seconds()
	}
	return median(xs)
}

// queryPath returns the latencies and times to first result of the
// successful queries (reads on serve-churn) and their rate.
func (p *pass) queryPath() (lat, first []time.Duration, qps float64) {
	if p.w.spec.serve {
		return p.churn.readLat, p.churn.readTTFR, ratio(float64(p.churn.reads), p.churn.window.Seconds())
	}
	for _, o := range p.queries {
		if o.err != nil {
			continue
		}
		lat = append(lat, o.latency)
		if o.ttfr > 0 {
			first = append(first, o.ttfr)
		}
	}
	return lat, first, ratio(float64(len(lat)), p.window.Seconds())
}

// protocolOps returns the latencies, the summed bandwidth and the count of
// the successful operations that ran the protocol against the sites.
func (p *pass) protocolOps() ([]time.Duration, transport.Snapshot, int) {
	if p.w.spec.serve {
		return p.churn.updateLat, p.meter, len(p.churn.updateLat)
	}
	var lat []time.Duration
	var sum transport.Snapshot
	for _, o := range p.queries {
		if o.err != nil {
			continue
		}
		lat = append(lat, o.latency)
		b := o.rep.Bandwidth
		sum.TuplesUp += b.TuplesUp
		sum.TuplesDown += b.TuplesDown
		sum.Messages += b.Messages
		sum.Bytes += b.Bytes
	}
	return lat, sum, len(lat)
}

// counts returns the operations attempted and failed.
func (p *pass) counts() (attempted, failed int) {
	if p.w.spec.serve {
		c := p.churn
		return c.reads + c.readFailed + len(c.updateLat) + c.updateErrs, c.readFailed + c.updateErrs
	}
	for _, o := range p.queries {
		if o.err != nil {
			failed++
		}
	}
	return len(p.queries), failed
}

// layerRows computes the per-layer metrics of a traced pass. plain is the
// untraced pass of the same run, which supplies the set-up and runtime
// rows and the baseline for trace.overhead_pct.
func layerRows(p, plain *pass, rec *recorder, kr kernelReplay) (contract, full metricList) {
	spans := rec.spans
	excluded := make([]bool, len(spans))
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.layer == layerOp {
			excluded[i] = s.sampled
		} else if s.parent >= 0 {
			excluded[i] = excluded[s.parent]
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}

	// Coordinator: per protocol operation, the time no RPC was in flight
	// (self), the time one was (wait), and the number of disjoint RPC
	// waves on the critical path.
	var ops, selfNS, waitNS, waves float64
	for i, s := range spans {
		if s.layer != layerOp || excluded[i] {
			continue
		}
		u, segs := union(spans, children[i])
		ops++
		waitNS += float64(u)
		selfNS += float64(s.dur() - u)
		waves += float64(segs)
	}
	allOps := float64(p.protocolOpCount())

	type kindRows struct {
		rpc, overhead, handle []time.Duration
		bytes                 int64
	}
	kinds := make(map[transport.Kind]*kindRows)
	row := func(k transport.Kind) *kindRows {
		if kinds[k] == nil {
			kinds[k] = &kindRows{}
		}
		return kinds[k]
	}
	var all kindRows
	for i, s := range spans {
		if excluded[i] || s.parent < 0 {
			continue
		}
		switch s.layer {
		case layerRPC:
			u, _ := union(spans, children[i])
			r := row(s.kind)
			r.rpc = append(r.rpc, time.Duration(s.dur()))
			r.overhead = append(r.overhead, time.Duration(s.dur()-u))
			r.bytes += s.bytes
			all.rpc = append(all.rpc, time.Duration(s.dur()))
			all.overhead = append(all.overhead, time.Duration(s.dur()-u))
			all.bytes += s.bytes
		case layerHandle:
			row(s.kind).handle = append(row(s.kind).handle, time.Duration(s.dur()))
			all.handle = append(all.handle, time.Duration(s.dur()))
		}
	}

	var c, f metricList
	both := func(name string, v float64, unit string, n int) {
		c.add(name, v, unit, n)
		f.add(name, v, unit, n)
	}
	nOps := int(ops)
	both("core.self_ms", ratio(selfNS, ops)/1e6, "ms", nOps)
	both("core.wait_ms", ratio(waitNS, ops)/1e6, "ms", nOps)
	both("core.round_trips", ratio(waves, ops), "count", nOps)
	var it, bc, rf, ex, answers, up float64
	var nq int
	for _, o := range p.queries {
		if o.err != nil {
			continue
		}
		nq++
		it += float64(o.rep.Iterations)
		bc += float64(o.rep.Broadcasts)
		rf += float64(o.rep.Refills)
		ex += float64(o.rep.Expunged)
		answers += float64(len(o.rep.Skyline))
		up += float64(o.rep.Bandwidth.TuplesUp)
	}
	both("core.iterations", ratio(it, float64(nq)), "count", nq)
	both("core.broadcasts", ratio(bc, float64(nq)), "count", nq)
	both("core.refills", ratio(rf, float64(nq)), "count", nq)
	both("core.expunged", ratio(ex, float64(nq)), "count", nq)
	both("core.answer_yield", ratio(answers, up), "ratio", nq)
	for pi, ph := range core.Phases() {
		var sum float64
		var n int
		for _, o := range p.queries {
			if pi < len(o.phases) {
				sum += millis(o.phases[pi])
				n++
			}
		}
		f.add("core.phase."+ph.String()+"_ms", ratio(sum, float64(n)), "ms", n)
	}

	both("transport.calls_per_op", ratio(float64(len(all.rpc)), ops), "count", len(all.rpc))
	both("transport.rpc_us_p50", pct(all.rpc, 0.5, time.Microsecond), "us", len(all.rpc))
	both("transport.overhead_us_p50", pct(all.overhead, 0.5, time.Microsecond), "us", len(all.overhead))
	both("transport.bytes_per_call", ratio(float64(all.bytes), float64(len(all.rpc))), "B", len(all.rpc))
	both("site.handle_us_p50", pct(all.handle, 0.5, time.Microsecond), "us", len(all.handle))
	for _, k := range reportKinds(p.w.spec) {
		r := row(k)
		name := k.String()
		f.add("transport."+name+".calls", ratio(float64(len(r.rpc)), ops), "count", len(r.rpc))
		f.add("transport."+name+".rpc_us_p50", pct(r.rpc, 0.5, time.Microsecond), "us", len(r.rpc))
		f.add("transport."+name+".overhead_us_p50", pct(r.overhead, 0.5, time.Microsecond), "us", len(r.overhead))
		f.add("transport."+name+".bytes", ratio(float64(r.bytes), float64(len(r.rpc))), "B", len(r.rpc))
		f.add("site."+name+".handle_us_p50", pct(r.handle, 0.5, time.Microsecond), "us", len(r.handle))
		f.add("site."+name+".handle_us_p90", pct(r.handle, 0.9, time.Microsecond), "us", len(r.handle))
	}

	both("site.pruned_per_op", ratio(float64(rec.pruned), allOps), "count", int(allOps))
	both("site.prune_yield", ratio(float64(rec.pruned), float64(kr.windowSkylineSum)), "ratio", kr.windowInits)

	both("prtree.local_skyline_us", kr.localSkylineUS, "us", kr.localSkylineN)
	both("prtree.cross_sky_prob_us", kr.crossSkyProbUS, "us", kr.crossSkyProbN)
	both("prtree.local_skyline_len", kr.skylineLen, "count", kr.localSkylineN)
	both("prtree.repeat_share", kr.repeatShare, "ratio", kr.localSkylineN)

	entries, reads := p.entriesPerRead()
	f.add("serve.entries_per_read", ratio(entries, float64(reads)), "count", reads)
	st := p.serveStats
	f.add("serve.hits", float64(st.Hits), "count", reads)
	f.add("serve.misses", float64(st.Misses), "count", reads)
	f.add("serve.refreshes", float64(st.Refreshes), "count", reads)
	f.add("serve.coalesced", float64(st.Coalesced), "count", reads)
	ins, del := p.serviceTimes()
	f.add("serve.insert_ms_p50", pct(ins, 0.5, time.Millisecond), "ms", len(ins))
	f.add("serve.delete_ms_p50", pct(del, 0.5, time.Millisecond), "ms", len(del))
	nUp := len(p.churn.updateLat)
	both("serve.update_calls", ratio(float64(p.meter.Messages), float64(nUp)), "count", nUp)
	both("serve.update_bytes", ratio(float64(p.meter.Bytes), float64(nUp)), "B", nUp)

	attempted, _ := plain.counts()
	both("runtime.allocs_per_op", ratio(float64(plain.runtimeDelta.mallocs), float64(attempted)), "count", attempted)
	both("runtime.gc_cpu_fraction", ratio(plain.runtimeDelta.gcCPU, plain.runtimeDelta.allCPU), "ratio", attempted)

	setupMS := func(get func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(plain.setups))
		for i, s := range plain.setups {
			xs[i] = millis(get(s))
		}
		return median(xs)
	}
	ns := len(plain.setups)
	both("setup.gen_ms", setupMS(func(s setupTimes) time.Duration { return s.gen }), "ms", ns)
	both("setup.index_ms", setupMS(func(s setupTimes) time.Duration { return s.index }), "ms", ns)
	both("setup.connect_ms", setupMS(func(s setupTimes) time.Duration { return s.connect }), "ms", ns)
	both("setup.materialize_ms", setupMS(func(s setupTimes) time.Duration { return s.materialize }), "ms", ns)

	tracedLat, _, _ := p.queryPath()
	plainLat, _, _ := plain.queryPath()
	base := pct(plainLat, 0.5, time.Millisecond)
	both("trace.overhead_pct", 100*ratio(pct(tracedLat, 0.5, time.Millisecond)-base, base), "%", len(tracedLat))
	return c, f
}

// reportKinds are the request kinds the full report breaks the transport
// and site rows down by.
func reportKinds(s spec) []transport.Kind {
	if s.serve {
		return []transport.Kind{transport.KindInsert, transport.KindDelete, transport.KindEvaluate, transport.KindCandidates, transport.KindReplicate}
	}
	return []transport.Kind{transport.KindInit, transport.KindNext, transport.KindEvaluate, transport.KindEndQuery}
}

// union returns the total length covered by the given spans' intervals
// and the number of disjoint segments they form.
func union(spans []span, ids []int32) (covered int64, segments int) {
	if len(ids) == 0 {
		return 0, 0
	}
	iv := make([][2]int64, len(ids))
	for i, id := range ids {
		iv[i] = [2]int64{spans[id].start, spans[id].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	lo, hi := iv[0][0], iv[0][1]
	segments = 1
	for _, x := range iv[1:] {
		if x[0] > hi {
			covered += hi - lo
			lo, hi = x[0], x[1]
			segments++
			continue
		}
		hi = max(hi, x[1])
	}
	return covered + hi - lo, segments
}

// protocolOpCount is the number of successful protocol operations.
func (p *pass) protocolOpCount() int {
	_, _, n := p.protocolOps()
	return n
}

// entriesPerRead returns the answer entries delivered and the number of
// answers: materialized reads on serve-churn, protocol queries otherwise.
func (p *pass) entriesPerRead() (float64, int) {
	if p.w.spec.serve {
		return float64(p.churn.entries), p.churn.reads
	}
	var n float64
	var k int
	for _, o := range p.queries {
		if o.err == nil {
			n += float64(len(o.rep.Skyline))
			k++
		}
	}
	return n, k
}

// serviceTimes splits the serve-churn update service times (from each
// update's actual start) into inserts and deletes.
func (p *pass) serviceTimes() (ins, del []time.Duration) {
	for i, d := range p.churn.service {
		if p.churn.inserts[i] {
			ins = append(ins, d)
		} else {
			del = append(del, d)
		}
	}
	return ins, del
}
