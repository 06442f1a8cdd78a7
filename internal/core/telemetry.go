package core

// The coordinator side of the cluster telemetry plane: one pushed
// subscription per site feeding a tsdb.Store, a staleness-driven
// resubscribe loop that survives site restarts and retry-transport
// redials, and the read surfaces — /clusterz (JSON and text), the
// Prometheus federation view, and the degraded marks in Cluster.Health.
//
// The plane is strictly additive: an in-process site reports
// ErrTelemetryUnsupported once and is left alone, and a site predating
// telemetry never pushes — queries and health probes against either
// are untouched.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
	"repro/internal/transport"
)

// TelemetryConfig sizes a cluster telemetry plane. The zero value is
// usable: 1s pushes, two minutes of retention, degraded after three
// silent intervals.
type TelemetryConfig struct {
	// Interval is the push cadence requested from every site. <=0
	// selects transport.DefTelemetryInterval; values below
	// transport.MinTelemetryInterval are raised to it (the site-side
	// publisher clamps identically, and staleness accounting must agree
	// with what the sites actually send).
	Interval time.Duration
	// Retention is how many samples each per-site series ring keeps
	// (<=0 selects tsdb.DefRetention).
	Retention int
	// StaleAfter is how many silent intervals mark a site degraded
	// (<=0 selects 3).
	StaleAfter int
	// Logger, when set, records subscription failures and recoveries.
	Logger *slog.Logger
}

// ErrTelemetryStarted reports a second StartTelemetry on one Cluster.
var ErrTelemetryStarted = errors.New("core: telemetry already started")

// ClusterTelemetry is a running telemetry plane: the subscriptions, the
// store they feed, and the HTTP/metrics read surfaces. Obtain one from
// Cluster.StartTelemetry.
type ClusterTelemetry struct {
	cluster  *Cluster
	store    *tsdb.Store
	interval time.Duration
	logger   *slog.Logger

	cancelRun context.CancelFunc
	done      chan struct{}

	mu   sync.Mutex
	subs []func() // active subscription cancels, indexed by site (nil = none)
	errs []error  // last subscription error, indexed by site
}

// StartTelemetry subscribes to every site's telemetry push stream and
// starts the maintenance loop that re-subscribes whenever a site goes
// silent — which covers site restarts and retry-transport redials
// (a subscription is bound to one connection and dies with it).
//
// Subscription failures are not fatal: a site that is down comes under
// management when it returns, and an in-process site is simply not part
// of the plane (it stays healthy, not degraded). The plane assumes the
// convention used everywhere else in this package: site i's engine was
// created with ID i.
//
// Stop the plane with ClusterTelemetry.Stop or by cancelling ctx.
// Starting a second plane on the same Cluster is an error.
func (c *Cluster) StartTelemetry(ctx context.Context, cfg TelemetryConfig) (*ClusterTelemetry, error) {
	if c.telemetry != nil {
		return nil, ErrTelemetryStarted
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = transport.DefTelemetryInterval
	}
	if interval < transport.MinTelemetryInterval {
		interval = transport.MinTelemetryInterval
	}
	t := &ClusterTelemetry{
		cluster:  c,
		interval: interval,
		logger:   cfg.Logger,
		store: tsdb.New(tsdb.Config{
			Retention:  cfg.Retention,
			Interval:   interval,
			StaleAfter: cfg.StaleAfter,
		}),
		done: make(chan struct{}),
		subs: make([]func(), len(c.clients)),
		errs: make([]error, len(c.clients)),
	}
	runCtx, cancel := context.WithCancel(ctx)
	t.cancelRun = cancel
	for i := range c.clients {
		t.resubscribe(runCtx, i)
	}
	c.telemetry = t
	go t.run(runCtx)
	return t, nil
}

// Telemetry returns the running telemetry plane (nil when none).
func (c *Cluster) Telemetry() *ClusterTelemetry { return c.telemetry }

// Store exposes the backing time-series store for custom readers.
func (t *ClusterTelemetry) Store() *tsdb.Store { return t.store }

// Interval returns the effective (clamped) push cadence.
func (t *ClusterTelemetry) Interval() time.Duration { return t.interval }

// Stop cancels every subscription and waits for the maintenance loop to
// exit. Idempotent.
func (t *ClusterTelemetry) Stop() {
	t.cancelRun()
	<-t.done
}

// SiteErrors returns the last subscription error per site (nil entries
// for healthy subscriptions). A transport.ErrTelemetryUnsupported entry
// means the site cannot push (an in-process site) and is permanently
// outside the plane.
func (t *ClusterTelemetry) SiteErrors() []error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]error(nil), t.errs...)
}

// run is the maintenance loop: once per interval, any site that is not
// freshly pushing gets its subscription torn down and re-established.
func (t *ClusterTelemetry) run(ctx context.Context) {
	defer close(t.done)
	tick := time.NewTicker(t.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			t.mu.Lock()
			subs := t.subs
			t.subs = make([]func(), len(subs))
			t.mu.Unlock()
			for _, cancel := range subs {
				if cancel != nil {
					cancel()
				}
			}
			return
		case <-tick.C:
			for i := range t.cluster.clients {
				if ctx.Err() != nil {
					break
				}
				if st, ok := t.store.Site(int64(i)); ok && !st.Stale {
					continue // pushing normally
				}
				t.mu.Lock()
				unsupported := errors.Is(t.errs[i], transport.ErrTelemetryUnsupported)
				t.mu.Unlock()
				if unsupported {
					continue // cannot push: retrying cannot help
				}
				t.resubscribe(ctx, i)
			}
		}
	}
}

// resubscribe tears down site i's subscription (if any) and establishes
// a fresh one. A subscription is bound to one mux connection; when that
// connection died without request traffic, the retry transport has not
// noticed yet — one cheap status probe forces its discard-and-redial
// path, and the second subscribe attempt rides the fresh connection.
func (t *ClusterTelemetry) resubscribe(ctx context.Context, i int) {
	t.mu.Lock()
	old := t.subs[i]
	t.subs[i] = nil
	t.mu.Unlock()
	if old != nil {
		old()
	}

	cancel, err := transport.SubscribeTelemetry(t.cluster.clients[i], t.interval, t.store.Ingest)
	if err != nil && !errors.Is(err, transport.ErrTelemetryUnsupported) {
		probeCtx, stop := context.WithTimeout(ctx, t.interval)
		_, perr := t.cluster.clients[i].Call(probeCtx, &transport.Request{Kind: transport.KindStatus})
		stop()
		if perr == nil {
			cancel, err = transport.SubscribeTelemetry(t.cluster.clients[i], t.interval, t.store.Ingest)
		}
	}

	t.mu.Lock()
	prev := t.errs[i]
	t.subs[i], t.errs[i] = cancel, err
	t.mu.Unlock()
	if t.logger != nil {
		switch {
		case err != nil && (prev == nil || prev.Error() != err.Error()):
			t.logger.Warn("telemetry subscription failed", "site", i, "err", err)
		case err == nil && prev != nil:
			t.logger.Info("telemetry subscription established", "site", i)
		}
	}
}

// siteStale classifies client index i for health and federation: stale
// reports the degraded mark, ok=false means the site is outside the
// plane (it cannot push) and must not be marked degraded.
func (t *ClusterTelemetry) siteStale(i int) (stale bool, age float64, ok bool) {
	if st, found := t.store.Site(int64(i)); found {
		return st.Stale, st.AgeSeconds, true
	}
	t.mu.Lock()
	err := t.errs[i]
	t.mu.Unlock()
	if errors.Is(err, transport.ErrTelemetryUnsupported) {
		return false, 0, false
	}
	// Subscribed (or trying to): a site that has never pushed is exactly
	// as invisible as one that stopped.
	return true, 0, true
}

// Clusterz is the one-endpoint cluster introspection document served at
// /clusterz: every site's latest snapshot plus staleness, the merged
// cluster-wide latency quantiles, and optionally each site's recent
// series history for sparkline rendering.
type Clusterz struct {
	UnixNano   int64          `json:"unix_nano"`
	IntervalNS int64          `json:"interval_ns"`
	StaleAfter int            `json:"stale_after"`
	Sites      int            `json:"sites"`
	Fresh      int            `json:"fresh"`
	Stale      int            `json:"stale"`
	Rate       float64        `json:"rate"`
	P50Ms      float64        `json:"p50_ms"`
	P95Ms      float64        `json:"p95_ms"`
	P99Ms      float64        `json:"p99_ms"`
	PerSite    []ClusterzSite `json:"per_site"`
}

// ClusterzSite is one site's entry in the Clusterz document.
type ClusterzSite struct {
	tsdb.SiteState
	// Err is the last subscription error, when the plane cannot reach
	// this site's push stream ("" when subscribed).
	Err string `json:"err,omitempty"`
	// History holds the site's recent derived series (oldest first),
	// omitted when the reader asked for ?history=0.
	History map[string][]tsdb.Point `json:"history,omitempty"`
}

// Snapshot assembles the Clusterz document. withHistory includes each
// site's series rings (the expensive part of the payload).
func (t *ClusterTelemetry) Snapshot(withHistory bool) Clusterz {
	sites := t.store.Sites()
	errs := t.SiteErrors()
	doc := Clusterz{
		UnixNano:   time.Now().UnixNano(),
		IntervalNS: int64(t.interval),
		StaleAfter: t.store.StaleAfter(),
		Sites:      t.cluster.Sites(),
		P50Ms:      float64(t.store.MergedQuantile(0.50)) / float64(time.Millisecond),
		P95Ms:      float64(t.store.MergedQuantile(0.95)) / float64(time.Millisecond),
		P99Ms:      float64(t.store.MergedQuantile(0.99)) / float64(time.Millisecond),
		PerSite:    make([]ClusterzSite, 0, len(sites)),
	}
	for _, st := range sites {
		entry := ClusterzSite{SiteState: st}
		if st.Site >= 0 && st.Site < int64(len(errs)) && errs[st.Site] != nil {
			entry.Err = errs[st.Site].Error()
		}
		if withHistory {
			entry.History = make(map[string][]tsdb.Point, len(tsdb.SeriesNames()))
			for _, series := range tsdb.SeriesNames() {
				entry.History[series] = t.store.History(st.Site, series)
			}
		}
		if st.Stale {
			doc.Stale++
		} else {
			doc.Fresh++
			if v, ok := t.store.LatestValue(st.Site, tsdb.SeriesRate); ok {
				doc.Rate += v
			}
		}
		doc.PerSite = append(doc.PerSite, entry)
	}
	// Sites the plane knows about but that never pushed (down since
	// start) still count against freshness.
	if known := len(sites); doc.Sites > known {
		for i := 0; i < doc.Sites; i++ {
			if _, found := t.store.Site(int64(i)); found {
				continue
			}
			if stale, _, ok := t.siteStale(i); ok && stale {
				doc.Stale++
				entry := ClusterzSite{}
				entry.Site = int64(i)
				entry.Stale = true
				if i < len(errs) && errs[i] != nil {
					entry.Err = errs[i].Error()
				}
				doc.PerSite = append(doc.PerSite, entry)
			}
		}
	}
	return doc
}

// Handler serves the Clusterz document at its mount point (conventionally
// /clusterz): JSON by default, a human-readable table with
// ?format=text, series history omitted with ?history=0. GET/HEAD only.
func (t *ClusterTelemetry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			t.WriteText(w)
			return
		}
		doc := t.Snapshot(r.URL.Query().Get("history") != "0")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// WriteText renders the Clusterz document as the table behind
// /clusterz?format=text and dsud-query -cluster-status's telemetry
// footer.
func (t *ClusterTelemetry) WriteText(w io.Writer) {
	doc := t.Snapshot(false)
	fmt.Fprintf(w, "%-5s %-7s %8s %8s %9s %8s %8s %8s %9s %6s %8s %9s\n",
		"SITE", "STATE", "AGE", "PUSHES", "RATE", "P50MS", "P95MS", "P99MS", "INFLIGHT", "BUSY", "QUEUED", "TUPLES")
	for _, s := range doc.PerSite {
		state := "FRESH"
		if s.Stale {
			state = "STALE"
		}
		if s.Err != "" {
			fmt.Fprintf(w, "%-5d %-7s %s\n", s.Site, state, s.Err)
			continue
		}
		rate, _ := t.store.LatestValue(s.Site, tsdb.SeriesRate)
		p50, _ := t.store.LatestValue(s.Site, tsdb.SeriesP50)
		p95, _ := t.store.LatestValue(s.Site, tsdb.SeriesP95)
		p99, _ := t.store.LatestValue(s.Site, tsdb.SeriesP99)
		fmt.Fprintf(w, "%-5d %-7s %7.1fs %8d %9.1f %8.2f %8.2f %8.2f %9d %6d %8d %9d\n",
			s.Site, state, s.AgeSeconds, s.Pushes, rate, p50, p95, p99,
			s.Latest.InFlight, s.Latest.MuxBusy, s.Latest.MuxQueued, s.Latest.Tuples)
	}
	fmt.Fprintf(w, "%d/%d sites fresh; cluster rate %.1f/s p50 %.2fms p95 %.2fms p99 %.2fms\n",
		doc.Fresh, doc.Sites, doc.Rate, doc.P50Ms, doc.P95Ms, doc.P99Ms)
}

// Expose registers the Prometheus federation view on reg: per-site
// gauges for every derived series plus up/age marks, and the merged
// cluster quantiles — the whole cluster on the coordinator's own
// /metrics, no per-site scrape configuration required. Call once,
// before the registry serves. Nil-safe.
func (t *ClusterTelemetry) Expose(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Describe(
		"dsud_cluster_site_up", "1 when the site's telemetry push stream is fresh, 0 when degraded.",
		"dsud_cluster_last_push_age_seconds", "Seconds since the site's last telemetry push.",
		"dsud_cluster_rate", "Per-site windowed request rate, pushed.",
		"dsud_cluster_p50_ms", "Per-site windowed latency p50 (ms), pushed.",
		"dsud_cluster_p95_ms", "Per-site windowed latency p95 (ms), pushed.",
		"dsud_cluster_p99_ms", "Per-site windowed latency p99 (ms), pushed.",
		"dsud_cluster_in_flight", "Per-site in-flight requests, pushed.",
		"dsud_cluster_mux_busy", "Per-site busy mux workers, pushed.",
		"dsud_cluster_mux_queued", "Per-site queued mux requests, pushed.",
		"dsud_cluster_tuples", "Per-site indexed tuples, pushed.",
		"dsud_cluster_sessions", "Per-site live sessions, pushed.",
		"dsud_cluster_merged_p50_ms", "Cluster-wide merged latency p50 (ms).",
		"dsud_cluster_merged_p95_ms", "Cluster-wide merged latency p95 (ms).",
		"dsud_cluster_merged_p99_ms", "Cluster-wide merged latency p99 (ms).",
	)
	for i := 0; i < t.cluster.Sites(); i++ {
		i := i
		label := strconv.Itoa(i)
		reg.GaugeFunc("dsud_cluster_site_up", func() float64 {
			if stale, _, ok := t.siteStale(i); !ok || !stale {
				return 1
			}
			return 0
		}, "site", label)
		reg.GaugeFunc("dsud_cluster_last_push_age_seconds", func() float64 {
			_, age, _ := t.siteStale(i)
			return age
		}, "site", label)
		for _, series := range tsdb.SeriesNames() {
			series := series
			reg.GaugeFunc("dsud_cluster_"+series, func() float64 {
				v, _ := t.store.LatestValue(int64(i), series)
				return v
			}, "site", label)
		}
	}
	for _, q := range []struct {
		name string
		q    float64
	}{
		{"dsud_cluster_merged_p50_ms", 0.50},
		{"dsud_cluster_merged_p95_ms", 0.95},
		{"dsud_cluster_merged_p99_ms", 0.99},
	} {
		q := q
		reg.GaugeFunc(q.name, func() float64 {
			return float64(t.store.MergedQuantile(q.q)) / float64(time.Millisecond)
		})
	}
}
