package experiments

import (
	"context"
	"testing"
	"time"
)

// TestThroughputMuxAdvantage pins the point of the multiplexed transport:
// at real client concurrency one shared connection per site must clear
// more queries per second than a single client does on the same delayed
// sites. The threshold is loose (CI machines are noisy; 6 clients on 3
// sites measured about 5x on a 2-CPU box); the committed bench baseline
// records the real scaling at 8 clients and benchdiff gates on it.
func TestThroughputMuxAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark")
	}
	res, err := Throughput(context.Background(), ThroughputOptions{
		Concurrency: []int{1, 6},
		Queries:     6,
		N:           500,
		Sites:       3,
		SiteDelay:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	for _, r := range res {
		if r.MuxQPS <= 0 || r.Queries < 2*r.Concurrency {
			t.Fatalf("malformed result: %+v", r)
		}
	}
	if s := res[0].Speedup; s != 1 {
		t.Fatalf("speedup at the lowest concurrency = %v, want exactly 1", s)
	}
	if s := res[1].Speedup; s < 1.8 {
		t.Fatalf("mux scaling at %d clients = %.2fx; concurrent queries should overlap their site delays",
			res[1].Concurrency, s)
	}
	// The materialized tier answers from memory — no per-query site
	// round-trips at all — so even a loose floor sits far above the mux.
	for _, r := range res {
		if r.MaterializedQPS <= 0 || r.ServeSpeedup <= 0 {
			t.Fatalf("missing materialized measurement: %+v", r)
		}
	}
	if s := res[1].ServeSpeedup; s < 2 {
		t.Fatalf("materialized speedup at %d clients = %.2fx; prefix reads should beat protocol rounds",
			res[1].Concurrency, s)
	}
}
