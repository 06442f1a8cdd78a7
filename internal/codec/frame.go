package codec

// Wire protocol v2 frames. Each message travels in a length-prefixed
// frame carrying a request ID, so many RPCs can be pipelined over a
// single TCP connection and responses may return out of order. The
// layout reuses this package's conventions (version byte up front,
// CRC-32 trailer):
//
//	length  u32 LE   — byte count of everything after this field
//	version u8       — FrameVersion
//	type    u8       — FrameRequest | FrameResponse | FrameCancel
//	id      u64 LE   — request identifier, echoed on the response
//	payload bytes    — opaque body (a transport Request or Response in
//	                   its hand-written payload codec, or a frame-type
//	                   specific body)
//	crc32   u32 LE   — IEEE CRC of version..payload
//
// A connection opens with a 5-byte handshake (MuxHandshake) that the
// server echoes; a server that reads any other opener closes the
// connection unanswered.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameVersion is carried in every frame and in the handshake, and
// changes whenever the frame or payload encoding does, so a peer built
// for another encoding is refused at the handshake instead of
// misparsing. 2 carried a persistent per-connection gob stream inside
// the frames; 3 carries self-contained, hand-encoded Request/Response
// payloads. (The framed protocol as a whole is "wire v2".)
const FrameVersion = 3

// muxMagic opens the v2 handshake.
var muxMagic = [4]byte{0xD5, 'S', 'Q', '2'}

// MuxHandshake is the full 5-byte hello a v2 client sends at dial time;
// a v2 server echoes it back verbatim as the accept.
func MuxHandshake() [5]byte {
	return [5]byte{muxMagic[0], muxMagic[1], muxMagic[2], muxMagic[3], FrameVersion}
}

// FrameType discriminates v2 frames.
type FrameType uint8

// Frame types.
const (
	// FrameRequest carries one encoded transport request; id is
	// caller-assigned and unique per in-flight request.
	FrameRequest FrameType = 1
	// FrameResponse carries one encoded transport response; id echoes
	// the request it answers.
	FrameResponse FrameType = 2
	// FrameCancel tells the peer the identified request was abandoned;
	// it has no payload and receives no reply. Best-effort: the
	// response may already be in flight, in which case it is dropped at
	// the receiver. It also cancels a telemetry subscription when its ID
	// names one (the two ID spaces are caller-assigned and disjoint).
	FrameCancel FrameType = 3
	// FrameSubscribe opens a server→client telemetry stream: the payload
	// is an AppendSubscribe body carrying the requested push interval,
	// and the ID names the subscription in every subsequent
	// FrameTelemetry push and in the FrameCancel that ends it. A server
	// that predates telemetry ignores the frame (unknown types are
	// padding), so the client simply never sees a push — the same
	// degraded-visibility story as a site that stopped pushing.
	FrameSubscribe FrameType = 4
	// FrameTelemetry is one pushed site-telemetry snapshot: the ID
	// echoes the subscription and the payload is an AppendTelemetry
	// body (full or delta-encoded against the previous push). Clients
	// that predate telemetry ignore it.
	FrameTelemetry FrameType = 5
)

func (t FrameType) String() string {
	switch t {
	case FrameRequest:
		return "request"
	case FrameResponse:
		return "response"
	case FrameCancel:
		return "cancel"
	case FrameSubscribe:
		return "subscribe"
	case FrameTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// frameOverhead is the framed byte cost beyond the payload: the length
// prefix plus version, type, id and CRC.
const frameOverhead = 4 + frameHeaderLen + 4

// frameHeaderLen is version + type + id.
const frameHeaderLen = 1 + 1 + 8

// MaxFramePayload bounds a frame's payload so a corrupt or hostile
// length prefix cannot force a giant allocation. Partitions shipped
// whole (KindShipAll at paper scale) stay well under this.
const MaxFramePayload = 1 << 30

// ErrFrame reports a structurally invalid or corrupt v2 frame.
var ErrFrame = errors.New("codec: corrupt frame")

// Frame is one decoded v2 frame. Payload aliases the decode buffer.
type Frame struct {
	Type    FrameType
	ID      uint64
	Payload []byte
}

// AppendFrame appends the framed encoding of (t, id, payload) to dst
// and returns the extended slice.
func AppendFrame(dst []byte, t FrameType, id uint64, payload []byte) []byte {
	body := frameHeaderLen + len(payload) + 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	start := len(dst)
	dst = append(dst, FrameVersion, byte(t))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:len(dst)])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// FrameBytes returns the wire size of a frame with the given payload
// length — what a meter should charge for it.
func FrameBytes(payloadLen int) int { return payloadLen + frameOverhead }

// DecodeFrameBody parses the post-length portion of a frame (version
// through CRC). It validates the version and checksum and never
// panics, whatever the input.
func DecodeFrameBody(body []byte) (Frame, error) {
	if len(body) < frameHeaderLen+4 {
		return Frame{}, fmt.Errorf("%w: body %d bytes, need >= %d", ErrFrame, len(body), frameHeaderLen+4)
	}
	payloadEnd := len(body) - 4
	if got, want := binary.LittleEndian.Uint32(body[payloadEnd:]), crc32.ChecksumIEEE(body[:payloadEnd]); got != want {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	if body[0] != FrameVersion {
		return Frame{}, fmt.Errorf("%w: version %d (this build speaks %d)", ErrFrame, body[0], FrameVersion)
	}
	return Frame{
		Type:    FrameType(body[1]),
		ID:      binary.LittleEndian.Uint64(body[2:10]),
		Payload: body[frameHeaderLen:payloadEnd],
	}, nil
}

// ReadFrame reads one complete frame from r, returning the frame and
// the total wire bytes consumed. A clean EOF before the first length
// byte returns io.EOF unwrapped, so connection teardown is
// distinguishable from corruption mid-frame.
func ReadFrame(r io.Reader) (Frame, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return Frame{}, 0, io.EOF
		}
		return Frame{}, 0, fmt.Errorf("%w: length prefix: %v", ErrFrame, err)
	}
	body := binary.LittleEndian.Uint32(lenBuf[:])
	if body < frameHeaderLen+4 || body > MaxFramePayload+frameHeaderLen+4 {
		return Frame{}, 0, fmt.Errorf("%w: implausible frame length %d", ErrFrame, body)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, 0, fmt.Errorf("%w: truncated frame (%d byte body): %v", ErrFrame, body, err)
	}
	fr, err := DecodeFrameBody(buf)
	if err != nil {
		return Frame{}, 0, err
	}
	return fr, 4 + int(body), nil
}
