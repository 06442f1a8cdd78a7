package transport

// Server→client telemetry push over wire v2. A coordinator subscribes on
// its existing mux connection (FrameSubscribe) and the site then pushes
// one delta-encoded codec.Telemetry snapshot per interval
// (FrameTelemetry) until the subscription is cancelled (FrameCancel on
// the subscription ID) or the connection dies. Pushes share the
// connection's write path with responses, so a subscription costs no
// extra socket — and because unknown frame types are ignorable padding
// on both ends, every combination of old and new peers degrades to
// "no telemetry" rather than an error.
//
// The publisher runs once per subscription on the site and its per-push
// path is allocation-free at steady state (TestTelemetryPublisherZeroAlloc
// pins it): the source fills a reused snapshot, the delta encoder writes
// into a reused buffer, and the frame goes out under the shared write
// mutex.

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/codec"
)

// DefTelemetryInterval is the push cadence when the subscriber does not
// request one: frequent enough for a live dashboard, cheap enough to
// leave on (one small frame per second).
const DefTelemetryInterval = time.Second

// MinTelemetryInterval floors what a subscriber may request, so a
// hostile or buggy coordinator cannot make a site busy-spin encoding
// telemetry.
const MinTelemetryInterval = 100 * time.Millisecond

// telemetryFullEvery re-anchors the delta stream with a self-contained
// snapshot every n-th push (and on the first), bounding how long a
// subscriber that dropped one frame stays blind.
const telemetryFullEvery = 16

// ErrTelemetryUnsupported reports that a client (or the peer behind it)
// cannot deliver telemetry pushes — an in-process client, or a wrapper
// hiding one.
var ErrTelemetryUnsupported = errors.New("transport: telemetry not supported by this client")

// TelemetrySource fills one telemetry snapshot with the site's current
// state. FillTelemetry must be safe for concurrent use (one publisher
// goroutine runs per subscription) and should reuse t's slices — the
// publisher's zero-allocation guarantee is only as good as its source.
// Seq and WallNano are owned by the publisher; sources must leave them.
type TelemetrySource interface {
	FillTelemetry(t *codec.Telemetry)
}

// TelemetrySubscriber is the optional Client extension for transports
// that can stream telemetry pushes. Wrappers forward it via Unwrap;
// use the package-level SubscribeTelemetry to reach through a stack.
type TelemetrySubscriber interface {
	Client
	// SubscribeTelemetry asks the peer to push one snapshot per interval
	// (0 selects the server default), invoking fn from the demux
	// goroutine for each decoded snapshot. The *codec.Telemetry passed to
	// fn is reused between pushes: fn must copy what it keeps. The
	// returned cancel stops the stream (idempotent).
	SubscribeTelemetry(interval time.Duration, fn func(*codec.Telemetry)) (cancel func(), err error)
}

// Unwrapper lets client wrappers expose their inner client so optional
// interfaces (TelemetrySubscriber) can be discovered through a stack of
// Metered/Instrumented/Delayed decorators.
type Unwrapper interface {
	Unwrap() Client
}

// SubscribeTelemetry subscribes through an arbitrary client stack: it
// walks Unwrap chains and live RetryClient connections until it finds a
// TelemetrySubscriber, and fails with ErrTelemetryUnsupported when the
// stack bottoms out in a transport that cannot push (Local).
// The subscription is bound to the connection that was live at call
// time; after a redial the caller must subscribe again (staleness-driven
// resubscription is the aggregator's job, see core.ClusterTelemetry).
func SubscribeTelemetry(cl Client, interval time.Duration, fn func(*codec.Telemetry)) (func(), error) {
	for cl != nil {
		switch c := cl.(type) {
		case TelemetrySubscriber:
			return c.SubscribeTelemetry(interval, fn)
		case *RetryClient:
			inner, err := c.Current()
			if err != nil {
				return nil, err
			}
			cl = inner
		case Unwrapper:
			cl = c.Unwrap()
		default:
			return nil, ErrTelemetryUnsupported
		}
	}
	return nil, ErrTelemetryUnsupported
}

// TelemetryStats is a point-in-time view of a server's telemetry
// publishers, surfaced through SiteStatus so the pull plane (/statusz,
// -cluster-status) can see the push plane's health.
type TelemetryStats struct {
	// Subscribers is the number of live telemetry subscriptions.
	Subscribers int `json:"subscribers"`
	// Pushes counts telemetry frames sent since process start.
	Pushes uint64 `json:"pushes"`
	// LastPushUnixNano stamps the most recent push (0 = never).
	LastPushUnixNano int64 `json:"last_push_unix_nano"`
}

// SetTelemetrySource wires the server's telemetry publishers to src.
// Until it is called (or with a nil src) FrameSubscribe is ignored and
// subscribers simply see no pushes — the same silent degradation an old
// binary gives. Call before Serve.
func (s *Server) SetTelemetrySource(src TelemetrySource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.telemetrySource = src
}

// TelemetryStats reports current publisher-side telemetry counters.
// Cheap enough for status handlers; safe for concurrent use.
func (s *Server) TelemetryStats() TelemetryStats {
	return TelemetryStats{
		Subscribers:      int(s.telemetrySubs.Load()),
		Pushes:           s.telemetryPushes.Load(),
		LastPushUnixNano: s.telemetryLastPush.Load(),
	}
}

// muxWriter serialises every frame write on one v2 connection: response
// frames and telemetry pushes. The payload and frame buffers are reused
// across writes.
type muxWriter struct {
	mu      sync.Mutex
	w       io.Writer
	payload []byte
	buf     []byte
}

// writeFrame frames payload and writes it. The payload is built by the
// caller outside the lock, so publishers encoding large snapshots do not
// stall response writes.
func (mw *muxWriter) writeFrame(t codec.FrameType, id uint64, payload []byte) error {
	mw.mu.Lock()
	mw.buf = codec.AppendFrame(mw.buf[:0], t, id, payload)
	_, err := mw.w.Write(mw.buf)
	mw.mu.Unlock()
	return err
}

// writeResponse encodes, frames and writes one response, returning the
// frame's wire size. Encoding under the lock into the reused payload
// buffer keeps a steady-state response allocation-free.
func (mw *muxWriter) writeResponse(id uint64, resp *Response, errMsg string) int {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mw.payload = AppendResponse(mw.payload[:0], resp, errMsg)
	mw.buf = codec.AppendFrame(mw.buf[:0], codec.FrameResponse, id, mw.payload)
	mw.w.Write(mw.buf)
	return len(mw.buf)
}

// telemetryPublisher is one subscription's push state: double-buffered
// snapshots (so the previous push stays intact as the delta base while
// the next is filled) and a reused payload buffer.
type telemetryPublisher struct {
	src     TelemetrySource
	mw      *muxWriter
	id      uint64
	seq     uint64
	cur     *codec.Telemetry
	prev    *codec.Telemetry
	payload []byte
}

func newTelemetryPublisher(src TelemetrySource, mw *muxWriter, id uint64) *telemetryPublisher {
	return &telemetryPublisher{
		src: src, mw: mw, id: id,
		cur:  &codec.Telemetry{},
		prev: &codec.Telemetry{},
	}
}

// push fills, encodes and writes one snapshot. Allocation-free once the
// buffers are warm.
func (p *telemetryPublisher) push(now int64) error {
	t := p.cur
	p.src.FillTelemetry(t)
	p.seq++
	t.Seq = p.seq
	t.WallNano = now
	prev := p.prev
	if p.seq%telemetryFullEvery == 1 {
		prev = nil // periodic self-contained re-anchor (and the opening push)
	}
	p.payload = codec.AppendTelemetry(p.payload[:0], t, prev)
	err := p.mw.writeFrame(codec.FrameTelemetry, p.id, p.payload)
	p.cur, p.prev = p.prev, p.cur
	return err
}

// runTelemetryPublisher drives one subscription until ctx is cancelled
// (FrameCancel, connection teardown, drain) or a write fails. The first
// snapshot goes out immediately so a fresh subscriber renders within one
// round trip, not one interval.
func (s *Server) runTelemetryPublisher(ctx context.Context, mw *muxWriter, id uint64, interval time.Duration, src TelemetrySource) {
	if interval <= 0 {
		interval = DefTelemetryInterval
	}
	if interval < MinTelemetryInterval {
		interval = MinTelemetryInterval
	}
	s.telemetrySubs.Add(1)
	defer s.telemetrySubs.Add(-1)
	p := newTelemetryPublisher(src, mw, id)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		now := time.Now().UnixNano()
		if p.push(now) != nil {
			return // the connection is dying; its read loop will notice too
		}
		s.telemetryPushes.Add(1)
		s.telemetryLastPush.Store(now)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
