package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
)

// sessionEcho answers every request with Size = int(req.Session), so a
// test can verify responses are demultiplexed to the right caller.
func sessionEcho(ctx context.Context, req *Request) (*Response, error) {
	return &Response{Size: int(req.Session)}, nil
}

func startMuxServer(t *testing.T, h Handler) (string, *Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(h, nil)
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	return lis.Addr().String(), s
}

func dialMux(t *testing.T, addr string) *MuxClient {
	t.Helper()
	cl, err := DialAuto(addr, nil)
	if err != nil {
		t.Fatalf("DialAuto: %v", err)
	}
	mc, ok := cl.(*MuxClient)
	if !ok {
		t.Fatalf("DialAuto returned %T against a v2 server, want *MuxClient", cl)
	}
	t.Cleanup(func() { mc.Close() })
	return mc
}

func TestMuxConcurrentCalls(t *testing.T) {
	addr, _ := startMuxServer(t, handlerFunc(sessionEcho))
	mc := dialMux(t, addr)

	const callers = 32
	const perCaller = 25
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				want := uint64(g*perCaller + i + 1)
				resp, n, err := mc.CallBytes(context.Background(), &Request{Kind: KindStatus, Session: want})
				if err != nil {
					errCh <- fmt.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if resp.Size != int(want) {
					errCh <- fmt.Errorf("caller %d call %d: demux mixed responses: got %d want %d", g, i, resp.Size, want)
					return
				}
				if n <= 0 {
					errCh <- fmt.Errorf("caller %d call %d: no byte attribution (n=%d)", g, i, n)
					return
				}
			}
			errCh <- nil
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxCancelKeepsConnectionUsable pins the headline v2 property:
// cancelling one in-flight call must neither kill the shared connection
// nor disturb other callers — the exact opposite of the v1 client,
// where cancellation closes the socket.
func TestMuxCancelKeepsConnectionUsable(t *testing.T) {
	entered := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	h := handlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		if req.Session == 999 { // the victim request parks until cancelled
			entered <- struct{}{}
			<-ctx.Done()
			cancelled <- struct{}{}
			return nil, ctx.Err()
		}
		return sessionEcho(ctx, req)
	})
	addr, _ := startMuxServer(t, h)
	mc := dialMux(t, addr)

	// A bystander call in flight... (proves cancellation is per-request)
	bystander := make(chan error, 1)
	go func() {
		resp, err := mc.Call(context.Background(), &Request{Kind: KindStatus, Session: 7})
		if err == nil && resp.Size != 7 {
			err = fmt.Errorf("bystander got %d want 7", resp.Size)
		}
		bystander <- err
	}()

	ctx, cancel := context.WithCancel(context.Background())
	victim := make(chan error, 1)
	go func() {
		_, err := mc.Call(ctx, &Request{Kind: KindStatus, Session: 999})
		victim <- err
	}()
	<-entered // the victim is in the handler, mid-flight
	cancel()

	if err := <-victim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: got %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
		// FrameCancel reached the server and cancelled the handler ctx.
	case <-time.After(5 * time.Second):
		t.Fatal("server handler never saw the cancellation")
	}
	if err := <-bystander; err != nil {
		t.Fatalf("bystander call disturbed by cancellation: %v", err)
	}

	// ...and the connection must still answer new calls afterwards.
	for i := 1; i <= 10; i++ {
		resp, err := mc.Call(context.Background(), &Request{Kind: KindStatus, Session: uint64(i)})
		if err != nil {
			t.Fatalf("call %d after cancellation: connection unusable: %v", i, err)
		}
		if resp.Size != i {
			t.Fatalf("call %d after cancellation: got %d", i, resp.Size)
		}
	}
}

// assertClosedUnanswered writes opener on a raw connection to addr and
// requires the server to close it without writing a byte back.
func assertClosedUnanswered(t *testing.T, addr string, opener []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(opener); err != nil {
		t.Fatalf("write opener: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [64]byte
	n, err := conn.Read(buf[:])
	// A close with unread input may surface as a reset rather than EOF;
	// either way the server hung up. Only a timeout means it kept waiting.
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("server answered % x (err %v), want the connection closed unanswered", buf[:n], err)
	}
}

// TestHandshakeRefusals pins the one-protocol handshake from both ends:
// the server closes on any opener that is not this build's hello, and
// DialAuto fails at once when a peer closes instead of echoing.
func TestHandshakeRefusals(t *testing.T) {
	var calls atomic.Int64
	addr, _ := startMuxServer(t, handlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		calls.Add(1)
		return &Response{}, nil
	}))

	t.Run("other frame version", func(t *testing.T) {
		hello := codec.MuxHandshake()
		hello[4] = codec.FrameVersion + 1
		assertClosedUnanswered(t, addr, hello[:])
	})

	t.Run("gob opener", func(t *testing.T) {
		var buf bytes.Buffer
		envelope := struct{ Req Request }{Request{Kind: KindStatus, Session: 1}}
		if err := gob.NewEncoder(&buf).Encode(&envelope); err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		assertClosedUnanswered(t, addr, buf.Bytes())
		if n := calls.Load(); n != 0 {
			t.Fatalf("handler served %d gob requests", n)
		}
	})

	t.Run("dial against a peer that closes", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer lis.Close()
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				var hello [5]byte
				io.ReadFull(conn, hello[:])
				conn.Close()
			}
		}()
		start := time.Now()
		cl, err := DialAuto(lis.Addr().String(), nil)
		if err == nil {
			cl.Close()
			t.Fatal("DialAuto succeeded against a peer that never echoed the hello")
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("DialAuto took %v to fail, want under 1s", elapsed)
		}
		for _, want := range []string{lis.Addr().String(), fmt.Sprintf("v%d", codec.FrameVersion)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("DialAuto error %q does not mention %q", err, want)
			}
		}
	})
}

func TestMuxWorkerLimitBounds(t *testing.T) {
	var inFlight, peak atomic.Int64
	release := make(chan struct{})
	h := handlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &Response{}, nil
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := NewServer(h, nil)
	s.SetWorkerLimit(2)
	go s.Serve(lis)
	t.Cleanup(func() { s.Close() })
	mc := dialMux(t, lis.Addr().String())

	const calls = 6
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc.Call(context.Background(), &Request{Kind: KindStatus})
		}()
	}
	// Give the dispatch loop time to (incorrectly) overshoot the limit.
	time.Sleep(100 * time.Millisecond)
	if got := peak.Load(); got > 2 {
		t.Fatalf("worker limit 2 exceeded: %d handlers in flight", got)
	}
	close(release)
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("worker limit 2 exceeded after release: %d", got)
	}
}

// TestMuxBrokenConnectionFailsInFlight: when the peer vanishes, every
// pending call errors out and later calls fail fast (the retry layer is
// what redials, not the mux client).
func TestMuxBrokenConnectionFailsInFlight(t *testing.T) {
	block := make(chan struct{})
	h := handlerFunc(func(ctx context.Context, req *Request) (*Response, error) {
		<-block
		return &Response{}, nil
	})
	addr, s := startMuxServer(t, h)
	mc := dialMux(t, addr)

	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := mc.Call(context.Background(), &Request{Kind: KindStatus})
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the calls get on the wire
	close(block)
	s.Close() // hard-close: in-flight responses may or may not make it

	deadline := time.After(5 * time.Second)
	failures := 0
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err != nil {
				failures++
			}
		case <-deadline:
			t.Fatalf("call %d still blocked after server close", i)
		}
	}
	// At minimum the client must not deadlock; once broken, new calls
	// must fail immediately rather than hang.
	done := make(chan error, 1)
	go func() {
		_, err := mc.Call(context.Background(), &Request{Kind: KindStatus})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call on a broken connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call on a broken connection hung")
	}
}

// TestRetryOverMuxRedials: the retry layer composes with mux — a dead
// shared connection fails concurrent calls, and they all recover onto
// one fresh connection.
func TestRetryOverMuxRedials(t *testing.T) {
	addrA, sA := startMuxServer(t, handlerFunc(sessionEcho))
	var addr atomic.Value
	addr.Store(addrA)
	rc := Retry(func() (Client, error) {
		return DialAuto(addr.Load().(string), nil)
	}, 5)
	defer rc.Close()

	if _, err := rc.Call(context.Background(), &Request{Kind: KindStatus, Session: 1}); err != nil {
		t.Fatalf("warm-up call: %v", err)
	}

	// Move the "site" to a new address and kill the old one: the shared
	// mux connection dies under the retry layer's feet.
	addrB, _ := startMuxServer(t, handlerFunc(sessionEcho))
	addr.Store(addrB)
	sA.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := uint64(i + 10)
			resp, err := rc.Call(context.Background(), &Request{Kind: KindStatus, Session: want})
			if err != nil {
				errCh <- fmt.Errorf("call %d: %v", i, err)
				return
			}
			if resp.Size != int(want) {
				errCh <- fmt.Errorf("call %d: got %d want %d", i, resp.Size, want)
				return
			}
			errCh <- nil
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := rc.Stats(); st.Redials < 1 {
		t.Fatalf("expected at least one redial, stats: %+v", st)
	}
}

// loopReader replays one byte stream forever without allocating.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// In steady state the mux client's read path — one buffered frame read
// into the reused body buffer, then the response decode — allocates
// nothing for a response without slices (an Evaluate's answer).
func TestMuxReadPathZeroAlloc(t *testing.T) {
	resp := &Response{CrossProb: 0.25, Pruned: 3, SessionPruned: 7}
	frame := codec.AppendFrame(nil, codec.FrameResponse, 42, AppendResponse(nil, resp, ""))
	r := frameReader{br: bufio.NewReader(&loopReader{data: bytes.Repeat(frame, 3)})}
	var got Response
	read := func() {
		fr, n, err := r.next()
		if err != nil || n != len(frame) || fr.ID != 42 {
			t.Fatalf("frame %+v, %d bytes, err %v", fr, n, err)
		}
		if _, err := DecodeResponse(fr.Payload, &got); err != nil {
			t.Fatal(err)
		}
	}
	read() // sizes the reused buffer
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Fatalf("steady-state frame read allocates %v/op", n)
	}
	if got.CrossProb != resp.CrossProb || got.Pruned != resp.Pruned || got.SessionPruned != resp.SessionPruned {
		t.Fatalf("decoded %+v, want %+v", got, *resp)
	}
}

// A frame larger than maxReusedFrame is read whole but its buffer is not
// kept, and the next small frame still reads correctly.
func TestMuxReadPathDropsLargeBuffer(t *testing.T) {
	big := codec.AppendFrame(nil, codec.FrameResponse, 1, make([]byte, maxReusedFrame+1))
	small := codec.AppendFrame(nil, codec.FrameResponse, 2, nil)
	r := frameReader{br: bufio.NewReader(bytes.NewReader(append(big, small...)))}
	if fr, _, err := r.next(); err != nil || fr.ID != 1 || len(fr.Payload) != maxReusedFrame+1 {
		t.Fatalf("big frame: id %d, %d payload bytes, err %v", fr.ID, len(fr.Payload), err)
	}
	if cap(r.buf) > maxReusedFrame {
		t.Fatalf("kept a %d-byte buffer", cap(r.buf))
	}
	if fr, _, err := r.next(); err != nil || fr.ID != 2 || len(fr.Payload) != 0 {
		t.Fatalf("small frame: id %d, %d payload bytes, err %v", fr.ID, len(fr.Payload), err)
	}
}
