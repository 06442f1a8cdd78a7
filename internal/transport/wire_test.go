package transport

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/synopsis"
	"repro/internal/uncertain"
)

// fillRandom sets every field reachable from v (a settable value) to a
// random value: each scalar is zero half the time, each slice is nil,
// empty or short, each pointer nil, zero or filled. It walks the types
// by reflection, so a field added to Request or Response is exercised
// without touching this test.
func fillRandom(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(r, v.Field(i))
		}
		return
	case reflect.Slice:
		switch r.Intn(4) {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			s := reflect.MakeSlice(v.Type(), 1+r.Intn(4), 4)
			for i := 0; i < s.Len(); i++ {
				fillRandom(r, s.Index(i))
			}
			v.Set(s)
		}
		return
	case reflect.Pointer:
		switch r.Intn(3) {
		case 0:
			v.Set(reflect.Zero(v.Type()))
		case 1:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			p := reflect.New(v.Type().Elem())
			fillRandom(r, p.Elem())
			v.Set(p)
		}
		return
	}
	if r.Intn(2) == 0 {
		v.Set(reflect.Zero(v.Type()))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Mix small and full-width values, both signs, within the type.
		x := int64(r.Uint64())
		if r.Intn(2) == 0 {
			x = int64(r.Intn(300)) - 150
		}
		v.SetInt(x >> (64 - v.Type().Bits()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := r.Uint64()
		if r.Intn(2) == 0 {
			x = uint64(r.Intn(300))
		}
		v.SetUint(x >> (64 - v.Type().Bits()))
	case reflect.Float64:
		// NaN is left out only because reflect.DeepEqual never equates
		// it; the byte-identity check below covers it.
		switch r.Intn(4) {
		case 0:
			v.SetFloat(r.Float64())
		case 1:
			v.SetFloat(math.Copysign(0, -1))
		case 2:
			v.SetFloat(math.Inf(1))
		default:
			v.SetFloat(r.NormFloat64() * 1e6)
		}
	case reflect.String:
		b := make([]byte, 1+r.Intn(12))
		r.Read(b)
		v.SetString(string(b))
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

func gobCopy(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
}

// allKinds is every protocol kind plus the zero and an unknown value.
func allKinds() []Kind {
	kinds := []Kind{0, KindStatus + 1}
	for k := KindInit; k <= KindStatus; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

// TestWireRoundTripMatchesGob is the codec's property test: for random
// requests and responses of every kind, the decoded value must equal
// what gob makes of the same value (nil and empty semantics included),
// and re-encoding it must give the same bytes.
func TestWireRoundTripMatchesGob(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	for _, kind := range allKinds() {
		for i := 0; i < 150; i++ {
			var req Request
			fillRandom(r, reflect.ValueOf(&req).Elem())
			req.Kind = kind
			wire := AppendRequest(nil, &req)
			var got, want Request
			if err := DecodeRequest(wire, &got); err != nil {
				t.Fatalf("%v request %d: %v\n%+v", kind, i, err, req)
			}
			gobCopy(t, &req, &want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v request %d:\n got %+v\ngob %+v", kind, i, got, want)
			}
			if again := AppendRequest(nil, &got); !bytes.Equal(again, wire) {
				t.Fatalf("%v request %d re-encodes differently:\n% x\n% x", kind, i, wire, again)
			}

			var resp Response
			fillRandom(r, reflect.ValueOf(&resp).Elem())
			var errMsg string
			if r.Intn(4) == 0 {
				errMsg = "site: unknown session"
			}
			wire = AppendResponse(nil, &resp, errMsg)
			var gotResp Response
			gotMsg, err := DecodeResponse(wire, &gotResp)
			if err != nil {
				t.Fatalf("%v response %d: %v\n%+v", kind, i, err, resp)
			}
			var wantWire wireResponse
			gobCopy(t, &wireResponse{Resp: resp, Err: errMsg}, &wantWire)
			if !reflect.DeepEqual(gotResp, wantWire.Resp) || gotMsg != wantWire.Err {
				t.Fatalf("%v response %d:\n got %+v %q\ngob %+v %q", kind, i, gotResp, gotMsg, wantWire.Resp, wantWire.Err)
			}
			if again := AppendResponse(nil, &gotResp, gotMsg); !bytes.Equal(again, wire) {
				t.Fatalf("%v response %d re-encodes differently:\n% x\n% x", kind, i, wire, again)
			}
		}
	}
}

// Floats cross bit for bit, NaN payloads and negative zero included.
func TestWireFloatsBitExact(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	resp := Response{
		Rep:       Representative{Tuple: uncertain.Tuple{ID: 1, Point: geom.Point{nan, negZero}, Prob: negZero}, LocalProb: nan},
		CrossProb: math.Nextafter(1, 0),
	}
	var got Response
	if _, err := DecodeResponse(AppendResponse(nil, &resp, ""), &got); err != nil {
		t.Fatal(err)
	}
	pairs := [][2]float64{
		{got.Rep.Tuple.Point[0], nan}, {got.Rep.Tuple.Point[1], negZero},
		{got.Rep.Tuple.Prob, negZero}, {got.Rep.LocalProb, nan}, {got.CrossProb, resp.CrossProb},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Errorf("float %d: bits %#x, want %#x", i, math.Float64bits(p[0]), math.Float64bits(p[1]))
		}
	}
}

func goldenEvaluate() *Request {
	return &Request{
		Kind:    KindEvaluate,
		Session: 0x0102030405060708,
		Client:  0x1112131415161718,
		Seq:     5,
		Feed: Feedback{
			Tuple:         uncertain.Tuple{ID: 42, Point: geom.Point{0.25, 0.5}, Prob: 0.75},
			HomeLocalProb: 0.5,
		},
	}
}

func goldenNext() *Response {
	return &Response{Rep: Representative{
		Tuple:     uncertain.Tuple{ID: 7, Point: geom.Point{1, 2}, Prob: 0.5},
		LocalProb: 0.25,
	}}
}

// The golden payloads pin the byte layout: a change here is a wire
// break and needs a FrameVersion bump.
func TestWireGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"evaluate request", AppendRequest(nil, goldenEvaluate()),
			"06" + // kind 3, zigzag
				"7f" + // mask: Session, Client, Seq, Feed ID/Point/Prob, HomeLocalProb
				"0807060504030201" + // Session, fixed 8 LE
				"1817161514131211" + // Client, fixed 8 LE
				"05" + // Seq
				"2a" + // Feed.Tuple.ID
				"02" + "000000000000d03f" + "000000000000e03f" + // Feed.Tuple.Point
				"000000000000e83f" + // Feed.Tuple.Prob
				"000000000000e03f"}, // Feed.HomeLocalProb
		{"next response", AppendResponse(nil, goldenNext(), ""),
			"0f" + // mask: Rep ID/Point/Prob, LocalProb
				"07" + // Rep.Tuple.ID
				"02" + "000000000000f03f" + "0000000000000040" + // Rep.Tuple.Point
				"000000000000e03f" + // Rep.Tuple.Prob
				"000000000000d03f"}, // Rep.LocalProb
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// A message's size must not depend on the random nonces it carries.
func TestWireSizeIndependentOfNonces(t *testing.T) {
	req := goldenEvaluate()
	req.Trace = obs.TraceContext{TraceID: 1, Parent: 1, Sampled: true}
	small := len(AppendRequest(nil, req))
	req.Session, req.Client = math.MaxUint64, math.MaxUint64
	req.Trace.TraceID, req.Trace.Parent = math.MaxUint64, math.MaxUint64
	if big := len(AppendRequest(nil, req)); big != small {
		t.Fatalf("request is %d bytes with small nonces, %d with large", small, big)
	}
}

func fullResponse() *Response {
	resp := goldenNext()
	resp.CrossProb, resp.Pruned, resp.SessionPruned = 0.5, 2, 9
	resp.Tuples = []Representative{resp.Rep, resp.Rep}
	resp.Synopsis = &synopsis.Histogram{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}, Grid: 2,
		Cells: []synopsis.Cell{{Count: 3, MinProb: 0.1}, {}, {}, {Count: 1, MinProb: 0.9}}}
	resp.Status = &SiteStatus{ID: 1, Tuples: 5000, ReplicaVersion: 3, UptimeSeconds: 12.5, LatencyP99Ms: 0.4}
	resp.TraceBlob = []byte("spans")
	return resp
}

// Encoding into a reused buffer allocates nothing.
func TestWireEncodeZeroAlloc(t *testing.T) {
	req := goldenEvaluate()
	req.Query = Query{Threshold: 0.3, Dims: []int{0, 2}}
	req.Tuples = []Representative{{Tuple: req.Feed.Tuple, LocalProb: 0.5}}
	req.RemoveIDs = []uncertain.TupleID{1, 2}
	resp := fullResponse()
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendRequest(buf[:0], req)
		buf = AppendResponse(buf[:0], resp, "")
		buf = AppendResponse(buf[:0], nil, "site: unknown session")
	}); n != 0 {
		t.Fatalf("encoding into a reused buffer allocates %v/op", n)
	}
}

// The decoder accepts only the one encoding of each value.
func TestWireDecodeRejects(t *testing.T) {
	evaluate := AppendRequest(nil, goldenEvaluate())
	next := AppendResponse(nil, goldenNext(), "")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	requests := map[string][]byte{
		"empty":          {},
		"truncated":      evaluate[:len(evaluate)-1],
		"trailing byte":  cat(evaluate, []byte{0}),
		"unknown bit":    {0x06, 0x80, 0x80, 0x80, 0x01},
		"overlong kind":  {0x86, 0x00, 0x00},
		"zero session":   cat([]byte{0x06, 0x01}, make([]byte, 8)),
		"zero seq":       {0x06, 0x04, 0x00},
		"empty dims":     {0x06, 0x80, 0x10, 0x00},
		"huge dims":      {0x06, 0x80, 0x10, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge point":     {0x06, 0x80, 0x80, 0x08, 0x10, 0, 0, 0, 0, 0, 0, 0, 0},
		"zero feed prob": cat([]byte{0x06, 0x20}, make([]byte, 8)),
	}
	for name, data := range requests {
		var req Request
		if err := DecodeRequest(data, &req); !errors.Is(err, ErrWire) {
			t.Errorf("request %s: err = %v, want ErrWire", name, err)
		}
	}
	responses := map[string][]byte{
		"trailing byte":   cat(next, []byte{0}),
		"unknown bit":     {0x80, 0x80, 0x02},
		"empty error":     {0x80, 0x80, 0x01, 0x00},
		"huge trace blob": {0x80, 0x40, 0x05, 'a'},
		"cell overflow":   cat([]byte{0x80, 0x10, 0x08, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10}, make([]byte, 8)),
		"unknown status":  {0x80, 0x20, 0x80, 0x80, 0x80, 0x04},
	}
	for name, data := range responses {
		var resp Response
		if _, err := DecodeResponse(data, &resp); !errors.Is(err, ErrWire) {
			t.Errorf("response %s: err = %v, want ErrWire", name, err)
		}
	}
}

// wireSeeds returns encoded requests and responses covering every
// field, for the fuzz corpora.
func wireSeeds() (reqs, resps [][]byte) {
	r := rand.New(rand.NewSource(1))
	for _, kind := range allKinds() {
		var req Request
		fillRandom(r, reflect.ValueOf(&req).Elem())
		req.Kind = kind
		reqs = append(reqs, AppendRequest(nil, &req))
		var resp Response
		fillRandom(r, reflect.ValueOf(&resp).Elem())
		resps = append(resps, AppendResponse(nil, &resp, ""))
	}
	reqs = append(reqs, AppendRequest(nil, goldenEvaluate()), []byte{}, []byte{0x06, 0x80, 0x10, 0xff, 0xff, 0xff, 0xff, 0x0f})
	resps = append(resps, AppendResponse(nil, fullResponse(), "boom"), []byte{0x80, 0x40, 0xff, 0xff, 0xff, 0xff, 0x0f})
	return reqs, resps
}

// checkDecodeAllocs fails when decode allocated more than a small
// multiple of the input length: every length is bounded by the bytes
// left, so a few input bytes can never buy a large allocation.
func checkDecodeAllocs(t *testing.T, data []byte, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	reqs, _ := wireSeeds()
	for _, s := range reqs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		var err error
		checkDecodeAllocs(t, data, func() { err = DecodeRequest(data, &req) })
		if err != nil {
			return
		}
		if again := AppendRequest(nil, &req); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n% x\n% x", data, again)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	_, resps := wireSeeds()
	for _, s := range resps {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		var msg string
		var err error
		checkDecodeAllocs(t, data, func() { msg, err = DecodeResponse(data, &resp) })
		if err != nil {
			return
		}
		if again := AppendResponse(nil, &resp, msg); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n% x\n% x", data, again)
		}
	})
}
