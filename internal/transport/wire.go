package transport

// Wire-v2 payload codec. Every FrameRequest/FrameResponse payload is
// one Request or Response in this hand-written layout, and transcripts
// store the same bytes. Each payload stands alone (no per-connection
// stream state), and encoding into a reused buffer allocates nothing.
//
// A message is a uvarint presence mask followed by only the fields
// whose bit is set, in bit order. A field is present exactly when it is
// non-zero, as gob omits zero fields; decoding leaves absent fields
// zero and absent slices nil. Values:
//
//   - float64: 8 bytes of little-endian IEEE bits, so P-values stay
//     bit-exact;
//   - the random nonces (Session, Client, Trace.TraceID, Trace.Parent):
//     8 bytes little-endian, so a message's size never depends on them;
//   - other integers: uvarint, or zigzag varint for signed types;
//   - bools: the mask bit alone;
//   - slices and strings: uvarint length (at least 1), then elements.
//
// Request:  kind varint | mask uvarint | fields
//
//	bit 0 Session         1 Client            2 Seq
//	    3 Feed.Tuple.ID   4 Feed.Tuple.Point  5 Feed.Tuple.Prob
//	    6 Feed.HomeLocalProb
//	    7 Trace.TraceID   8 Trace.Parent      9 Trace.Sampled
//	   10 Query.Threshold 11 Query.Dims      12 Query.NoPrune
//	   13 Tuple.ID       14 Tuple.Point      15 Tuple.Prob
//	   16 ID             17 Point            18 Grid
//	   19 Tuples         20 RemoveIDs
//
// Response: mask uvarint | fields
//
//	bit 0 Rep.Tuple.ID    1 Rep.Tuple.Point   2 Rep.Tuple.Prob
//	    3 Rep.LocalProb   4 CrossProb         5 Pruned
//	    6 SessionPruned   7 Exhausted         8 Tuples
//	    9 Size           10 Hopeless         11 Synopsis
//	   12 Status         13 TraceBlob        14 error string
//
// The bits the hot kinds use (Next, Evaluate and their answers) sit in
// the low seven, so their mask is one byte. A Tuples element, Synopsis
// and Status each carry a nested mask and fields of their own.
//
// The decoder is strict: it bounds every length by the bytes left
// before allocating, and rejects unknown mask bits, a set bit whose
// value is zero, overlong varints and trailing bytes. An accepted
// payload is therefore the one encoding of its value.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/synopsis"
	"repro/internal/uncertain"
)

// ErrWire reports a malformed request or response payload.
var ErrWire = errors.New("transport: malformed wire payload")

// Request field bits, in wire order.
const (
	rqSession = iota
	rqClient
	rqSeq
	rqFeedTuple // three bits: ID, Point, Prob
	_
	_
	rqFeedHome
	rqTraceID
	rqTraceParent
	rqTraceSampled
	rqThreshold
	rqDims
	rqNoPrune
	rqTuple // three bits: ID, Point, Prob
	_
	_
	rqID
	rqPoint
	rqGrid
	rqTuples
	rqRemoveIDs
	rqBits
)

// Response field bits, in wire order.
const (
	rsRepTuple = iota // three bits: ID, Point, Prob
	_
	_
	rsRepLocal
	rsCrossProb
	rsPruned
	rsSessionPruned
	rsExhausted
	rsTuples
	rsSize
	rsHopeless
	rsSynopsis
	rsStatus
	rsTraceBlob
	rsErr
	rsBits
)

// Bits of a Tuples element's mask and of a Histogram's.
const (
	repTuple = 0 // three bits: ID, Point, Prob
	repLocal = 3
	repBits  = 4

	histLo    = 0
	histHi    = 1
	histGrid  = 2
	histCells = 3
	histBits  = 4
)

func bit(set bool, i int) uint64 {
	if set {
		return 1 << i
	}
	return 0
}

// fbit is bit for a float64, which counts as set unless its bits are
// all zero: -0 is kept, so floats round-trip bit for bit.
func fbit(f float64, i int) uint64 { return bit(math.Float64bits(f) != 0, i) }

func has(m uint64, i int) bool { return m>>i&1 != 0 }

// AppendRequest appends req's payload encoding to dst and returns the
// extended slice. It allocates only to grow dst.
func AppendRequest(dst []byte, req *Request) []byte {
	q := &req.Query
	m := bit(req.Session != 0, rqSession) |
		bit(req.Client != 0, rqClient) |
		bit(req.Seq != 0, rqSeq) |
		tupleMask(&req.Feed.Tuple)<<rqFeedTuple |
		fbit(req.Feed.HomeLocalProb, rqFeedHome) |
		bit(req.Trace.TraceID != 0, rqTraceID) |
		bit(req.Trace.Parent != 0, rqTraceParent) |
		bit(req.Trace.Sampled, rqTraceSampled) |
		fbit(q.Threshold, rqThreshold) |
		bit(len(q.Dims) != 0, rqDims) |
		bit(q.NoPrune, rqNoPrune) |
		tupleMask(&req.Tuple)<<rqTuple |
		bit(req.ID != 0, rqID) |
		bit(len(req.Point) != 0, rqPoint) |
		bit(req.Grid != 0, rqGrid) |
		bit(len(req.Tuples) != 0, rqTuples) |
		bit(len(req.RemoveIDs) != 0, rqRemoveIDs)
	dst = binary.AppendVarint(dst, int64(req.Kind))
	dst = binary.AppendUvarint(dst, m)
	if has(m, rqSession) {
		dst = binary.LittleEndian.AppendUint64(dst, req.Session)
	}
	if has(m, rqClient) {
		dst = binary.LittleEndian.AppendUint64(dst, req.Client)
	}
	if has(m, rqSeq) {
		dst = binary.AppendUvarint(dst, req.Seq)
	}
	dst = appendTuple(dst, &req.Feed.Tuple, m>>rqFeedTuple)
	if has(m, rqFeedHome) {
		dst = appendFloat(dst, req.Feed.HomeLocalProb)
	}
	if has(m, rqTraceID) {
		dst = binary.LittleEndian.AppendUint64(dst, req.Trace.TraceID)
	}
	if has(m, rqTraceParent) {
		dst = binary.LittleEndian.AppendUint64(dst, req.Trace.Parent)
	}
	if has(m, rqThreshold) {
		dst = appendFloat(dst, q.Threshold)
	}
	if has(m, rqDims) {
		dst = binary.AppendUvarint(dst, uint64(len(q.Dims)))
		for _, d := range q.Dims {
			dst = binary.AppendVarint(dst, int64(d))
		}
	}
	dst = appendTuple(dst, &req.Tuple, m>>rqTuple)
	if has(m, rqID) {
		dst = binary.AppendUvarint(dst, uint64(req.ID))
	}
	if has(m, rqPoint) {
		dst = appendFloats(dst, req.Point)
	}
	if has(m, rqGrid) {
		dst = binary.AppendVarint(dst, int64(req.Grid))
	}
	if has(m, rqTuples) {
		dst = appendReps(dst, req.Tuples)
	}
	if has(m, rqRemoveIDs) {
		dst = binary.AppendUvarint(dst, uint64(len(req.RemoveIDs)))
		for _, id := range req.RemoveIDs {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// DecodeRequest decodes a payload written by AppendRequest into req,
// overwriting it.
func DecodeRequest(data []byte, req *Request) error {
	*req = Request{}
	d := wireDecoder{buf: data}
	req.Kind = Kind(d.varint())
	m := d.mask(rqBits)
	if has(m, rqSession) {
		req.Session = d.nonce()
	}
	if has(m, rqClient) {
		req.Client = d.nonce()
	}
	if has(m, rqSeq) {
		req.Seq = d.uvarintNZ()
	}
	d.tuple(&req.Feed.Tuple, m>>rqFeedTuple)
	if has(m, rqFeedHome) {
		req.Feed.HomeLocalProb = d.floatNZ()
	}
	if has(m, rqTraceID) {
		req.Trace.TraceID = d.nonce()
	}
	if has(m, rqTraceParent) {
		req.Trace.Parent = d.nonce()
	}
	req.Trace.Sampled = has(m, rqTraceSampled)
	if has(m, rqThreshold) {
		req.Query.Threshold = d.floatNZ()
	}
	if has(m, rqDims) {
		n := d.count(1)
		req.Query.Dims = make([]int, n)
		for i := range req.Query.Dims {
			req.Query.Dims[i] = int(d.varint())
		}
	}
	req.Query.NoPrune = has(m, rqNoPrune)
	d.tuple(&req.Tuple, m>>rqTuple)
	if has(m, rqID) {
		req.ID = uncertain.TupleID(d.uvarintNZ())
	}
	if has(m, rqPoint) {
		req.Point = d.floats()
	}
	if has(m, rqGrid) {
		req.Grid = int(d.varintNZ())
	}
	if has(m, rqTuples) {
		req.Tuples = d.reps()
	}
	if has(m, rqRemoveIDs) {
		n := d.count(1)
		req.RemoveIDs = make([]uncertain.TupleID, n)
		for i := range req.RemoveIDs {
			req.RemoveIDs[i] = uncertain.TupleID(d.uvarint())
		}
	}
	return d.finish("request")
}

// AppendResponse appends the payload encoding of resp (nil encodes as
// the zero Response) and a handler error message ("" for success) to
// dst and returns the extended slice. It allocates only to grow dst.
func AppendResponse(dst []byte, resp *Response, errMsg string) []byte {
	if resp == nil {
		resp = &Response{}
	}
	m := tupleMask(&resp.Rep.Tuple)<<rsRepTuple |
		fbit(resp.Rep.LocalProb, rsRepLocal) |
		fbit(resp.CrossProb, rsCrossProb) |
		bit(resp.Pruned != 0, rsPruned) |
		bit(resp.SessionPruned != 0, rsSessionPruned) |
		bit(resp.Exhausted, rsExhausted) |
		bit(len(resp.Tuples) != 0, rsTuples) |
		bit(resp.Size != 0, rsSize) |
		bit(resp.Hopeless, rsHopeless) |
		bit(resp.Synopsis != nil, rsSynopsis) |
		bit(resp.Status != nil, rsStatus) |
		bit(len(resp.TraceBlob) != 0, rsTraceBlob) |
		bit(errMsg != "", rsErr)
	dst = binary.AppendUvarint(dst, m)
	dst = appendTuple(dst, &resp.Rep.Tuple, m>>rsRepTuple)
	if has(m, rsRepLocal) {
		dst = appendFloat(dst, resp.Rep.LocalProb)
	}
	if has(m, rsCrossProb) {
		dst = appendFloat(dst, resp.CrossProb)
	}
	if has(m, rsPruned) {
		dst = binary.AppendVarint(dst, int64(resp.Pruned))
	}
	if has(m, rsSessionPruned) {
		dst = binary.AppendVarint(dst, int64(resp.SessionPruned))
	}
	if has(m, rsTuples) {
		dst = appendReps(dst, resp.Tuples)
	}
	if has(m, rsSize) {
		dst = binary.AppendVarint(dst, int64(resp.Size))
	}
	if has(m, rsSynopsis) {
		dst = appendHistogram(dst, resp.Synopsis)
	}
	if has(m, rsStatus) {
		dst = appendStatus(dst, resp.Status)
	}
	if has(m, rsTraceBlob) {
		dst = binary.AppendUvarint(dst, uint64(len(resp.TraceBlob)))
		dst = append(dst, resp.TraceBlob...)
	}
	if has(m, rsErr) {
		dst = binary.AppendUvarint(dst, uint64(len(errMsg)))
		dst = append(dst, errMsg...)
	}
	return dst
}

// DecodeResponse decodes a payload written by AppendResponse into resp,
// overwriting it, and returns the handler error message it carries
// ("" for success). The decoded value shares no memory with data.
func DecodeResponse(data []byte, resp *Response) (string, error) {
	*resp = Response{}
	d := wireDecoder{buf: data}
	m := d.mask(rsBits)
	d.tuple(&resp.Rep.Tuple, m>>rsRepTuple)
	if has(m, rsRepLocal) {
		resp.Rep.LocalProb = d.floatNZ()
	}
	if has(m, rsCrossProb) {
		resp.CrossProb = d.floatNZ()
	}
	if has(m, rsPruned) {
		resp.Pruned = int(d.varintNZ())
	}
	if has(m, rsSessionPruned) {
		resp.SessionPruned = int(d.varintNZ())
	}
	resp.Exhausted = has(m, rsExhausted)
	if has(m, rsTuples) {
		resp.Tuples = d.reps()
	}
	if has(m, rsSize) {
		resp.Size = int(d.varintNZ())
	}
	resp.Hopeless = has(m, rsHopeless)
	if has(m, rsSynopsis) {
		resp.Synopsis = d.histogram()
	}
	if has(m, rsStatus) {
		resp.Status = d.status()
	}
	if has(m, rsTraceBlob) {
		resp.TraceBlob = append([]byte(nil), d.bytes()...)
	}
	var errMsg string
	if has(m, rsErr) {
		errMsg = string(d.bytes())
	}
	if err := d.finish("response"); err != nil {
		return "", err
	}
	return errMsg, nil
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendFloats(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = appendFloat(dst, f)
	}
	return dst
}

// tupleMask returns t's three presence bits (ID, Point, Prob).
func tupleMask(t *uncertain.Tuple) uint64 {
	return bit(t.ID != 0, 0) | bit(len(t.Point) != 0, 1) | fbit(t.Prob, 2)
}

// appendTuple writes the fields of t whose bits are set in the low
// three bits of m.
func appendTuple(dst []byte, t *uncertain.Tuple, m uint64) []byte {
	if has(m, 0) {
		dst = binary.AppendUvarint(dst, uint64(t.ID))
	}
	if has(m, 1) {
		dst = appendFloats(dst, t.Point)
	}
	if has(m, 2) {
		dst = appendFloat(dst, t.Prob)
	}
	return dst
}

func appendReps(dst []byte, reps []Representative) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(reps)))
	for i := range reps {
		r := &reps[i]
		m := tupleMask(&r.Tuple)<<repTuple | fbit(r.LocalProb, repLocal)
		dst = binary.AppendUvarint(dst, m)
		dst = appendTuple(dst, &r.Tuple, m>>repTuple)
		if has(m, repLocal) {
			dst = appendFloat(dst, r.LocalProb)
		}
	}
	return dst
}

func appendHistogram(dst []byte, h *synopsis.Histogram) []byte {
	m := bit(len(h.Lo) != 0, histLo) | bit(len(h.Hi) != 0, histHi) |
		bit(h.Grid != 0, histGrid) | bit(len(h.Cells) != 0, histCells)
	dst = binary.AppendUvarint(dst, m)
	if has(m, histLo) {
		dst = appendFloats(dst, h.Lo)
	}
	if has(m, histHi) {
		dst = appendFloats(dst, h.Hi)
	}
	if has(m, histGrid) {
		dst = binary.AppendVarint(dst, int64(h.Grid))
	}
	if has(m, histCells) {
		// Cells are dense, so each is written whole: count, then MinProb.
		dst = binary.AppendUvarint(dst, uint64(len(h.Cells)))
		for _, c := range h.Cells {
			dst = binary.AppendVarint(dst, int64(c.Count))
			dst = appendFloat(dst, c.MinProb)
		}
	}
	return dst
}

// statusFields lists a SiteStatus's fields by wire type. A field's mask
// bit is its position across ints, int64s, uints and floats in turn.
type statusFields struct {
	ints   [11]*int
	int64s [3]*int64
	uints  [3]*uint64
	floats [6]*float64
}

const statusBits = 11 + 3 + 3 + 6

func fieldsOf(s *SiteStatus) statusFields {
	return statusFields{
		ints: [...]*int{&s.ID, &s.Tuples, &s.TreeHeight, &s.Sessions, &s.InFlight,
			&s.ReplicaSize, &s.MuxConns, &s.MuxWorkersBusy, &s.MuxWorkerLimit,
			&s.MuxQueued, &s.TelemetrySubscribers},
		int64s: [...]*int64{&s.StartUnixNano, &s.LastUpdateUnixNano, &s.TelemetryLastPushUnixNano},
		uints:  [...]*uint64{&s.ReplicaVersion, &s.RequestsTotal, &s.TelemetryPushes},
		floats: [...]*float64{&s.UptimeSeconds, &s.LatencyP50Ms, &s.LatencyP95Ms,
			&s.LatencyP99Ms, &s.WindowRate, &s.WindowSeconds},
	}
}

func appendStatus(dst []byte, s *SiteStatus) []byte {
	f := fieldsOf(s)
	var m uint64
	i := 0
	for _, p := range f.ints {
		m |= bit(*p != 0, i)
		i++
	}
	for _, p := range f.int64s {
		m |= bit(*p != 0, i)
		i++
	}
	for _, p := range f.uints {
		m |= bit(*p != 0, i)
		i++
	}
	for _, p := range f.floats {
		m |= fbit(*p, i)
		i++
	}
	dst = binary.AppendUvarint(dst, m)
	i = 0
	for _, p := range f.ints {
		if has(m, i) {
			dst = binary.AppendVarint(dst, int64(*p))
		}
		i++
	}
	for _, p := range f.int64s {
		if has(m, i) {
			dst = binary.AppendVarint(dst, *p)
		}
		i++
	}
	for _, p := range f.uints {
		if has(m, i) {
			dst = binary.AppendUvarint(dst, *p)
		}
		i++
	}
	for _, p := range f.floats {
		if has(m, i) {
			dst = appendFloat(dst, *p)
		}
		i++
	}
	return dst
}

// wireDecoder consumes a payload. The first failure is sticky: later
// reads return zero values and finish reports that failure.
type wireDecoder struct {
	buf []byte
	err error
}

func (d *wireDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrWire, what)
	}
	d.buf = nil
}

func (d *wireDecoder) finish(what string) error {
	if d.err == nil && len(d.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", ErrWire, len(d.buf), what)
	}
	return d.err
}

// uvarint reads a minimally encoded uvarint: a longer form (one that
// ends in a zero byte) would decode to the same value from other bytes.
func (d *wireDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *wireDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// nonZero fails the decode when a field whose mask bit is set holds
// its zero value: the encoder would have left the bit clear.
func (d *wireDecoder) nonZero(ok bool) {
	if !ok {
		d.fail("present field is zero")
	}
}

func (d *wireDecoder) uvarintNZ() uint64 {
	v := d.uvarint()
	d.nonZero(v != 0)
	return v
}

func (d *wireDecoder) varintNZ() int64 {
	v := d.varint()
	d.nonZero(v != 0)
	return v
}

// mask reads a presence mask of n known bits.
func (d *wireDecoder) mask(n int) uint64 {
	m := d.uvarint()
	if m>>n != 0 {
		d.fail("unknown mask bits")
		return 0
	}
	return m
}

func (d *wireDecoder) fixed64() uint64 {
	if len(d.buf) < 8 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *wireDecoder) nonce() uint64 {
	v := d.fixed64()
	d.nonZero(v != 0)
	return v
}

func (d *wireDecoder) float() float64 { return math.Float64frombits(d.fixed64()) }

func (d *wireDecoder) floatNZ() float64 {
	v := d.fixed64()
	d.nonZero(v != 0)
	return math.Float64frombits(v)
}

// count reads a slice length, rejecting zero (an empty slice is
// absent) and any length whose elements, at elemMin bytes each, could
// not fit in the bytes left — the bound that caps every allocation by
// the input length.
func (d *wireDecoder) count(elemMin int) int {
	n := d.uvarint()
	if n == 0 || n > uint64(len(d.buf)/elemMin) {
		d.fail("bad length")
		return 0
	}
	return int(n)
}

func (d *wireDecoder) bytes() []byte {
	n := d.count(1)
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *wireDecoder) floats() geom.Point {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	p := make(geom.Point, n)
	for i := range p {
		p[i] = d.float()
	}
	return p
}

// tuple reads the fields of t whose bits are set in the low three bits
// of m.
func (d *wireDecoder) tuple(t *uncertain.Tuple, m uint64) {
	if has(m, 0) {
		t.ID = uncertain.TupleID(d.uvarintNZ())
	}
	if has(m, 1) {
		t.Point = d.floats()
	}
	if has(m, 2) {
		t.Prob = d.floatNZ()
	}
}

func (d *wireDecoder) reps() []Representative {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	reps := make([]Representative, n)
	for i := range reps {
		r := &reps[i]
		m := d.mask(repBits)
		d.tuple(&r.Tuple, m>>repTuple)
		if has(m, repLocal) {
			r.LocalProb = d.floatNZ()
		}
	}
	return reps
}

func (d *wireDecoder) histogram() *synopsis.Histogram {
	h := &synopsis.Histogram{}
	m := d.mask(histBits)
	if has(m, histLo) {
		h.Lo = d.floats()
	}
	if has(m, histHi) {
		h.Hi = d.floats()
	}
	if has(m, histGrid) {
		h.Grid = int(d.varintNZ())
	}
	if has(m, histCells) {
		if n := d.count(9); n > 0 {
			h.Cells = make([]synopsis.Cell, n)
			for i := range h.Cells {
				c := d.varint()
				if c != int64(int32(c)) {
					d.fail("cell count overflows int32")
				}
				h.Cells[i] = synopsis.Cell{Count: int32(c), MinProb: d.float()}
			}
		}
	}
	return h
}

func (d *wireDecoder) status() *SiteStatus {
	s := &SiteStatus{}
	f := fieldsOf(s)
	m := d.mask(statusBits)
	i := 0
	for _, p := range f.ints {
		if has(m, i) {
			*p = int(d.varintNZ())
		}
		i++
	}
	for _, p := range f.int64s {
		if has(m, i) {
			*p = d.varintNZ()
		}
		i++
	}
	for _, p := range f.uints {
		if has(m, i) {
			*p = d.uvarintNZ()
		}
		i++
	}
	for _, p := range f.floats {
		if has(m, i) {
			*p = d.floatNZ()
		}
		i++
	}
	return s
}
