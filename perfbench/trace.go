package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/uncertain"
)

// The traced run records spans at the public seams only: around each
// benchmark operation, around each client Call (tracedClient), and on
// the site side around the engine's handling of each request
// (tracedHandler). Spans are kept in memory and turned into the
// per-layer rows when the run ends.

// Span layers, outermost first. A span's parent is in the layer above.
const (
	layerOp     uint8 = iota // one benchmark operation: query, insert, delete
	layerRPC                 // one client Call
	layerHandle              // the site engine's handling of a request (its lock wait included)
)

type span struct {
	layer uint8
	// sampled marks a query run through QueryWithStats, whose RPCs ask
	// the sites to trace.
	sampled bool
	kind    transport.Kind // request kind, below layerOp
	site    int32          // -1 for coordinator spans
	parent  int32          // -1 for roots
	session uint64
	start   int64 // ns since the recorder started
	end     int64
	bytes   int64 // wire bytes of an RPC (request and response frames)
}

func (s span) dur() int64 { return s.end - s.start }

type siteSession struct {
	site    int
	session uint64
}

// initCapture and evalCapture are the site-kernel inputs replayed against
// the PR-tree after the run (replay.go).
type initCapture struct {
	site int
	key  queryKey
}

type evalCapture struct {
	site  int
	tuple uncertain.Tuple
	dims  []int
}

// recorder holds one traced run's spans and captures.
type recorder struct {
	t0 time.Time
	// off stops recording once the timed window ends, so the answer
	// check's traffic stays out of the rows.
	off atomic.Bool

	mu    sync.Mutex
	spans []span
	// pending is the RPC in flight per (site, session): a query has at
	// most one request outstanding per site, and updates are serialised,
	// so the site side can find the Call its request belongs to.
	pending map[siteSession]int32
	// opOfSession maps a query session to its operation span, for the
	// end-query broadcast, which runs on a detached context.
	opOfSession map[uint64]int32
	dimsOf      map[siteSession][]int
	inits       []initCapture
	evals       []evalCapture
	pruned      int64
	// windowStart is the first Init captured after set-up.
	windowStart int
}

func newRecorder() *recorder {
	return &recorder{
		t0:          time.Now(),
		pending:     make(map[siteSession]int32),
		opOfSession: make(map[uint64]int32),
		dimsOf:      make(map[siteSession][]int),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index.
func (r *recorder) begin(s span) int32 {
	s.start = r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

func (r *recorder) finish(id int32, bytes int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = end
	r.spans[id].bytes = bytes
}

type spanKey struct{}

// withSpan returns ctx carrying span id, for the layer below to attach to.
func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanKey{}).(int32); ok {
		return id
	}
	return -1
}

// startOp opens an operation span; nil-safe, so untraced runs pass a nil
// recorder and get ctx back unchanged.
func (r *recorder) startOp(ctx context.Context, sampled bool) (context.Context, int32) {
	if r == nil || r.off.Load() {
		return ctx, -1
	}
	id := r.begin(span{layer: layerOp, sampled: sampled, site: -1, parent: -1})
	return withSpan(ctx, id), id
}

func (r *recorder) endOp(id int32) {
	if id >= 0 {
		r.finish(id, 0)
	}
}

// tracedClient times each Call of one site client. It forwards per-call
// byte attribution so the cluster's meters stay exact.
type tracedClient struct {
	inner transport.ByteReporter
	site  int
	rec   *recorder
}

func (c *tracedClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

func (c *tracedClient) CallBytes(ctx context.Context, req *transport.Request) (*transport.Response, int64, error) {
	r := c.rec
	if r.off.Load() {
		return c.inner.CallBytes(ctx, req)
	}
	key := siteSession{c.site, req.Session}
	start := r.now()
	r.mu.Lock()
	parent := spanOf(ctx)
	if parent >= 0 && req.Kind == transport.KindInit {
		r.opOfSession[req.Session] = parent
	}
	if parent < 0 {
		if op, ok := r.opOfSession[req.Session]; ok && req.Session != 0 {
			parent = op
		}
	}
	r.spans = append(r.spans, span{
		layer: layerRPC, kind: req.Kind, site: int32(c.site), parent: parent,
		session: req.Session, start: start,
	})
	id := int32(len(r.spans) - 1)
	r.pending[key] = id
	r.mu.Unlock()

	resp, n, err := c.inner.CallBytes(ctx, req)

	end := r.now()
	r.mu.Lock()
	r.spans[id].end = end
	r.spans[id].bytes = n
	if r.pending[key] == id {
		delete(r.pending, key)
	}
	r.mu.Unlock()
	return resp, n, err
}

func (c *tracedClient) Close() error { return c.inner.Close() }

// tracedHandler times the site engine's handling of each request and
// captures the kernel inputs for the replay.
type tracedHandler struct {
	inner transport.Handler
	site  int
	rec   *recorder
}

func (h *tracedHandler) Handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	r := h.rec
	if r.off.Load() {
		return h.inner.Handle(ctx, req)
	}
	r.mu.Lock()
	parent, ok := r.pending[siteSession{h.site, req.Session}]
	r.mu.Unlock()
	if !ok {
		parent = -1
	}
	id := r.begin(span{layer: layerHandle, kind: req.Kind, site: int32(h.site), parent: parent, session: req.Session})
	resp, err := h.inner.Handle(ctx, req)
	r.finish(id, 0)
	if err == nil {
		r.capture(h.site, req, resp)
	}
	return resp, err
}

// capture records the PR-tree kernel inputs of one handled request: the
// (threshold, subspace) of an Init, the feedback tuple of an Evaluate,
// and the Observation-2 prunes it caused.
func (r *recorder) capture(site int, req *transport.Request, resp *transport.Response) {
	key := siteSession{site, req.Session}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch req.Kind {
	case transport.KindInit:
		r.dimsOf[key] = req.Query.Dims
		r.inits = append(r.inits, initCapture{site: site, key: queryKey{q: req.Query.Threshold, dims: req.Query.Dims}})
	case transport.KindEvaluate:
		dims := req.Query.Dims
		if d, ok := r.dimsOf[key]; ok && req.Session != 0 {
			dims = d
		}
		r.evals = append(r.evals, evalCapture{site: site, tuple: req.Feed.Tuple, dims: dims})
		r.pruned += int64(resp.Pruned)
	case transport.KindEndQuery:
		delete(r.dimsOf, key)
	}
}

// reset drops everything recorded so far (set-up traffic), keeping the
// kernel captures, which the replay uses whole.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = r.spans[:0]
	r.pending = make(map[siteSession]int32)
	r.opOfSession = make(map[uint64]int32)
	r.pruned = 0
	r.windowStart = len(r.inits)
}
