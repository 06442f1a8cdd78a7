package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/dsq"
	"repro/internal/gen"
	"repro/internal/uncertain"
)

// smallSpec is a proto-cpu-like workload small enough for a unit test.
func smallSpec() spec {
	return spec{
		name: "test", values: gen.Anticorrelated, n: 1600, tenants: 2,
		keys:         []queryKey{{q: 0.3}, {q: 0.5}, {q: 0.4, dims: []int{0, 1}}},
		opsPerSecond: 6,
	}
}

func runSmall(t *testing.T, seed int64, trace bool) *result {
	t.Helper()
	res, err := execute(config{spec: smallSpec(), seed: seed, seconds: 2, trace: trace, badPruneSite: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func value(t *testing.T, ms metricList, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

func TestCountsRepeatForOneSeed(t *testing.T) {
	a := runSmall(t, 7, true)
	b := runSmall(t, 7, true)
	for _, res := range []*result{a, b} {
		if res.checkErr != nil {
			t.Fatal(res.checkErr)
		}
	}
	for _, name := range []string{"tuples_per_query", "round_trips_per_query"} {
		if x, y := value(t, a.report, name), value(t, b.report, name); x != y {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
	for _, name := range []string{"core.iterations", "core.broadcasts", "core.refills", "core.expunged", "core.answer_yield"} {
		if x, y := value(t, a.fullLayer, name), value(t, b.fullLayer, name); x != y {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
	// Each Cluster draws a random session-ID base, which gob writes in 8
	// bytes except with probability 1/256; allow that byte per request.
	x, y := value(t, a.report, "wire_bytes_per_query"), value(t, b.report, "wire_bytes_per_query")
	if calls := value(t, a.fullLayer, "transport.calls_per_op"); math.Abs(x-y) > calls {
		t.Errorf("wire_bytes_per_query: %v then %v (more than %v apart)", x, y, calls)
	}
}

func TestSecondSeedPassesCheck(t *testing.T) {
	if res := runSmall(t, 8, false); res.checkErr != nil {
		t.Fatal(res.checkErr)
	}
}

func TestBadPruneFailsCheck(t *testing.T) {
	// Low thresholds over independent data leave answers that a feedback
	// tuple dominates, which the unsound prune then drops.
	sp := smallSpec()
	sp.values = gen.Independent
	sp.keys = []queryKey{{q: 0.1}, {q: 0.2}}
	res, err := execute(config{spec: sp, seed: 7, seconds: 2, badPruneSite: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.checkErr == nil {
		t.Fatal("answer check passed with an unsound Observation-2 prune on site 0")
	}
	t.Log(res.checkErr)
}

// truncatingTier serves every materialized read without its last answer,
// delivering only what it returns.
type truncatingTier struct{ servingTier }

func (s truncatingTier) Query(ctx context.Context, opts dsq.Options) (*dsq.Report, error) {
	onResult := opts.OnResult
	opts.OnResult = nil
	rep, err := s.servingTier.Query(ctx, opts)
	if err != nil || len(rep.Skyline) == 0 {
		return rep, err
	}
	rep.Skyline = rep.Skyline[:len(rep.Skyline)-1]
	for _, m := range rep.Skyline {
		if onResult != nil {
			onResult(dsq.Result{Tuple: m.Tuple, GlobalProb: m.Prob})
		}
	}
	return rep, nil
}

func TestTruncatedReadFailsCheck(t *testing.T) {
	sp := workloads["serve-churn"]
	sp.n, sp.tenants, sp.opsPerSecond = 1500, 2, 10
	ctx := context.Background()
	p, err := measure(ctx, config{spec: sp, seed: 5, seconds: 2, badPruneSite: -1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.w.close()
	or := make(oracle)
	if err := check(ctx, p, or); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	for _, tn := range p.w.tenants {
		tn.server = truncatingTier{tn.server}
	}
	err = check(ctx, p, or)
	if err == nil {
		t.Fatal("answer check passed with every materialized read missing its last answer")
	}
	t.Log(err)
}

// TestOracleShortcuts compares the oracle with the repository's plain
// O(N²) reference, uncertain.DB.Skyline.
func TestOracleShortcuts(t *testing.T) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		db, err := gen.Generate(gen.Config{N: 1500, Dims: dims, Values: values, Probs: gen.UniformProb, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range [][]int{nil, {0, 1}, {2}} {
			for _, q := range []float64{0.1, 0.3, 0.6} {
				if err := matchOracle(skyline(db, q, sub), db.Skyline(q, sub)); err != nil {
					t.Errorf("%v dims=%v q=%v: %v", values, sub, q, err)
				}
			}
		}
	}
}

// TestResultLineMatchesBenchmarkJSON runs the shortest serve-churn run
// through the command-line entry point and checks that the last line
// carries exactly the metrics BENCHMARK.json lists, untraced and traced.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": bench.EndToEnd, "1": bench.PerLayer} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "serve-churn", "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, last.Correct, last.Attempted, last.Failed)
		}
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			got, ok := last.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %s: %s missing", trace, m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("trace %s: %s unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
		if len(last.Metrics) != len(want) {
			var extra []string
			for name := range last.Metrics {
				extra = append(extra, name)
			}
			sort.Strings(extra)
			t.Errorf("trace %s: printed %v, BENCHMARK.json lists %v", trace, extra, names)
		}
	}
}

func TestSortedAbove(t *testing.T) {
	m := func(id uncertain.TupleID, p float64) uncertain.SkylineMember {
		return uncertain.SkylineMember{Tuple: uncertain.Tuple{ID: id}, Prob: p}
	}
	for _, c := range []struct {
		members []uncertain.SkylineMember
		want    bool
	}{
		{[]uncertain.SkylineMember{m(1, 0.9), m(2, 0.5), m(3, 0.5)}, true},
		{[]uncertain.SkylineMember{m(1, 0.5), m(2, 0.9)}, false},
		{[]uncertain.SkylineMember{m(2, 0.5), m(1, 0.5)}, false},
		{[]uncertain.SkylineMember{m(1, 0.9), m(2, 0.2)}, false},
	} {
		if got := sortedAbove(c.members, 0.3); got != c.want {
			t.Errorf("sortedAbove(%v) = %v", c.members, got)
		}
	}
}
