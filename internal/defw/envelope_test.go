package defw

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// envelopeAlphabet mixes the bytes that take the hand-written path with
// every kind encoding/json treats specially: quotes, backslashes, HTML's
// < > &, control bytes, DEL, invalid UTF-8, multi-byte runes and U+2028.
var envelopeAlphabet = []string{
	"a", "q", "Z", "0", "9", ".", "_", "-", " ", "/", ":",
	`"`, `\`, "<", ">", "&", "\n", "\t", "\x00", "\x1f", "\x7f",
	"\xff", "\xe2", "\xe2\x80", "é", "\u2028", "\u2029", "😀",
}

func randText(r *rand.Rand, plain bool) string {
	n := r.Intn(12)
	var b []byte
	for i := 0; i < n; i++ {
		if plain {
			b = append(b, envelopeAlphabet[r.Intn(11)]...)
		} else {
			b = append(b, envelopeAlphabet[r.Intn(len(envelopeAlphabet))]...)
		}
	}
	return string(b)
}

// randValue writes a random JSON value, sometimes with whitespace between
// its tokens and sometimes with strings encoding/json would rewrite.
func randValue(r *rand.Rand, depth int, plain bool) []byte {
	space := func() string {
		if plain || r.Intn(6) != 0 {
			return ""
		}
		return []string{" ", "\n", "\t", "\r\n  "}[r.Intn(4)]
	}
	kind := r.Intn(7)
	if depth > 2 {
		kind %= 5
	}
	switch kind {
	case 0:
		return []byte([]string{"null", "true", "false"}[r.Intn(3)])
	case 1:
		return []byte([]string{"0", "-1", "12", "3.5", "1e9", "-0.25E-3", "18446744073709551615"}[r.Intn(7)])
	case 2, 3, 4:
		s, _ := json.Marshal(randText(r, plain))
		if !plain && r.Intn(4) == 0 {
			// Raw, unescaped bytes inside the quotes: json.Marshal would
			// never write them, a peer might.
			s = []byte(`"` + randText(r, false) + `"`)
		}
		return s
	case 5:
		var b bytes.Buffer
		b.WriteString("[" + space())
		for i, n := 0, r.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteString(space() + "," + space())
			}
			b.Write(randValue(r, depth+1, plain))
		}
		b.WriteString(space() + "]")
		return b.Bytes()
	default:
		var b bytes.Buffer
		b.WriteString("{" + space())
		for i, n := 0, r.Intn(4); i < n; i++ {
			if i > 0 {
				b.WriteString(space() + "," + space())
			}
			k, _ := json.Marshal(randText(r, plain))
			b.Write(k)
			b.WriteString(space() + ":" + space())
			b.Write(randValue(r, depth+1, plain))
		}
		b.WriteString(space() + "}")
		return b.Bytes()
	}
}

func randPayload(r *rand.Rand) json.RawMessage {
	switch r.Intn(10) {
	case 0:
		return nil
	case 1:
		return json.RawMessage{}
	case 2:
		return json.RawMessage("null")
	case 3: // padded
		return json.RawMessage([]string{" ", "\n", "\t"}[r.Intn(3)] + string(randValue(r, 0, true)) + " ")
	case 4: // truncated
		v := randValue(r, 0, r.Intn(2) == 0)
		return json.RawMessage(v[:r.Intn(len(v))])
	case 5, 6:
		return randValue(r, 0, false)
	default:
		return randValue(r, 0, true)
	}
}

func randID(r *rand.Rand) uint64 {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64 - uint64(r.Intn(3))
	default:
		return uint64(r.Int63n(1 << uint(1+r.Intn(62))))
	}
}

// TestEnvelopeBytesMatchEncodingJSON: on random requests and replies, the
// envelope codec writes json.Marshal's bytes (or fails with its error),
// and both decoders read every frame as json.Unmarshal does.
func TestEnvelopeBytesMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	prefix := []byte("\x00\x01\x02\x03")
	hand := 0
	for i := 0; i < 20000; i++ {
		plain := r.Intn(3) != 0
		req := request{ID: randID(r), Service: randText(r, plain), Method: randText(r, plain), Payload: randPayload(r)}
		resp := response{ID: randID(r), Payload: randPayload(r)}
		if r.Intn(8) == 0 {
			resp.Err = randText(r, plain)
		}
		got, gotErr := appendRequest(bytes.Clone(prefix), req)
		want, wantErr := json.Marshal(req)
		if plainString(req.Service) && plainString(req.Method) && plainPayload(req.Payload) {
			hand++
		}
		checkEncoded(t, "request", req, prefix, got, want, gotErr, wantErr)

		got, gotErr = appendResponse(bytes.Clone(prefix), resp)
		want, wantErr = json.Marshal(resp)
		checkEncoded(t, "response", resp, prefix, got, want, gotErr, wantErr)
	}
	if hand < 5000 {
		t.Fatalf("only %d of 20000 requests took the hand-written path", hand)
	}
}

func checkEncoded(t *testing.T, what string, v any, prefix, got, want []byte, gotErr, wantErr error) {
	t.Helper()
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s %+v: prefix overwritten: %q", what, v, got)
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s %+v: error %v, json.Marshal's %v", what, v, gotErr, wantErr)
	}
	if gotErr != nil {
		if len(got) != len(prefix) {
			t.Fatalf("%s %+v: failed encode appended %q", what, v, got[len(prefix):])
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s %+v:\n got %q\nwant %q", what, v, got[len(prefix):], want)
	}
	checkDecoders(t, want)
}

// checkDecoders holds decodeRequest and decodeResponse to json.Unmarshal
// on one frame: an error on both sides with the same text or on neither,
// and equal fields.
func checkDecoders(t *testing.T, frame []byte) {
	t.Helper()
	var wantReq request
	wantErr := json.Unmarshal(frame, &wantReq)
	gotReq, gotErr := decodeRequest(frame)
	checkDecoded(t, frame, gotErr, wantErr, gotReq, wantReq)
	var wantResp response
	wantErr = json.Unmarshal(frame, &wantResp)
	gotResp, gotErr := decodeResponse(frame)
	checkDecoded(t, frame, gotErr, wantErr, gotResp, wantResp)
}

func checkDecoded(t *testing.T, frame []byte, gotErr, wantErr error, got, want any) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q decoded to %T with error %v, json.Unmarshal's %v", frame, got, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q decoded to %+v, json.Unmarshal's %+v", frame, got, want)
	}
}

// FuzzDecodeEnvelope: for any bytes, decodeRequest and decodeResponse agree
// with json.Unmarshal, and as a payload the bytes are encoded as
// json.Marshal encodes them, or refused where json.Marshal's frame would be
// refused by json.Unmarshal.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte(`{"id":7,"service":"qpm.aer","method":"exec","payload":{"spec":{"qasm":"h q[0];"}}}`))
	f.Add([]byte(`{"id":7,"payload":[1,2,{"a":null}]}`))
	f.Add([]byte(`{"id":1,"payload":1,"err":"x"}`))
	f.Add([]byte(`{"id":1,"payload": {"a":1}}`))
	f.Add([]byte(`{"id":1,"payload":{"a":1} }`))
	f.Add([]byte(`{"id":01,"payload":2}`))
	f.Add([]byte(`{"id":18446744073709551616}`))
	f.Add([]byte(`{"id":3,"service":"a\u003cb","method":"m"}`))
	f.Add([]byte("{\"id\":3,\"service\":\"\xff\",\"method\":\"\u00e9\"}"))
	f.Add([]byte(`{"id":3,"err":"boom"}`))
	f.Add([]byte(`[-0.5e+7,"\u00e9\n",{"a":[true,false,null]},"<\u2028>"]`))
	f.Add([]byte(`{"id":2,"payload":[01]}`))
	f.Add(append(bytes.Repeat([]byte("["), maxJSONDepth), bytes.Repeat([]byte("]"), maxJSONDepth)...))
	f.Add(append(bytes.Repeat([]byte("["), maxJSONDepth+1), bytes.Repeat([]byte("]"), maxJSONDepth+1)...))
	f.Fuzz(func(t *testing.T, frame []byte) {
		checkDecoders(t, frame)
		// The same bytes as a payload: scanJSON is json.Valid, and the
		// encoder writes json.Marshal's bytes or fails with its error.
		if valid, _ := scanJSON(frame, 0); valid != json.Valid(frame) {
			t.Fatalf("scanJSON(%q) = %v, json.Valid says %v", frame, valid, !valid)
		}
		req := request{ID: 9, Service: "s", Method: "m", Payload: frame}
		got, gotErr := appendRequest(nil, req)
		want, wantErr := json.Marshal(req)
		if wantErr == nil && !json.Valid(want) {
			// json.Marshal wrote a frame json.Unmarshal refuses: a payload
			// at the nesting limit is one level too deep in an envelope.
			if gotErr == nil {
				t.Fatalf("encoded a frame json.Unmarshal refuses: %.40q…", got)
			}
			return
		}
		checkEncoded(t, "request", req, nil, got, want, gotErr, wantErr)
	})
}

// FuzzEnvelopeRoundTrip: whatever appendRequest or appendResponse encodes
// reads back with equal fields, through decodeRequest or decodeResponse and
// through json.Unmarshal. Strings come back as encoding/json writes them,
// each invalid UTF-8 byte as U+FFFD, and the payload as its compaction.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add(uint64(7), "qpm.aer", "exec", []byte(`{"spec":{"qasm":"h q[0];"}}`), "")
	f.Add(uint64(0), "", "", []byte(nil), "boom")
	f.Add(uint64(math.MaxUint64), "a<b", "\xff\u2028", []byte(" [1, \"<\u2028>&\"] "), "bad \"x\"\n")
	f.Add(uint64(3), "s", "m", []byte("null"), "")
	f.Add(uint64(4), "s", "m", []byte("{"), "")
	f.Add(uint64(9), "s", "m", deepArray(maxJSONDepth), "")
	f.Add(uint64(9), "s", "m", deepArray(maxJSONDepth-1), "")
	f.Fuzz(func(t *testing.T, id uint64, service, method string, payload []byte, errText string) {
		var want json.RawMessage
		if len(payload) > 0 {
			want, _ = json.Marshal(json.RawMessage(payload))
		}
		req := request{ID: id, Service: service, Method: method, Payload: payload}
		if frame, err := appendRequest(nil, req); err == nil {
			wantReq := request{ID: id, Service: string([]rune(service)), Method: string([]rune(method)), Payload: want}
			got, err := decodeRequest(frame)
			checkRoundTrip(t, frame, "decodeRequest", err, got, wantReq)
			var std request
			err = json.Unmarshal(frame, &std)
			checkRoundTrip(t, frame, "json.Unmarshal", err, std, wantReq)
		}
		resp := response{ID: id, Payload: payload, Err: errText}
		if frame, err := appendResponse(nil, resp); err == nil {
			wantResp := response{ID: id, Payload: want, Err: string([]rune(errText))}
			got, err := decodeResponse(frame)
			checkRoundTrip(t, frame, "decodeResponse", err, got, wantResp)
			var std response
			err = json.Unmarshal(frame, &std)
			checkRoundTrip(t, frame, "json.Unmarshal", err, std, wantResp)
		}
	})
}

func checkRoundTrip(t *testing.T, frame []byte, decoder string, err error, got, want any) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s refused the encoded frame %.60q: %v", decoder, frame, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s read %.60q as %+v, want %+v", decoder, frame, got, want)
	}
}

// TestDecodedPayloadAliasesFrame: a hand-read payload is a slice of its
// frame, not a copy, and cannot be appended over the closing brace.
func TestDecodedPayloadAliasesFrame(t *testing.T) {
	frame := []byte(`{"id":4,"payload":{"x":[1,2]}}`)
	resp, err := decodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != `{"x":[1,2]}` || &resp.Payload[0] != &frame[18] {
		t.Fatalf("payload %q is not frame[18:29]", resp.Payload)
	}
	_ = append(resp.Payload, '!')
	if frame[len(frame)-1] != '}' {
		t.Fatalf("appending to the payload overwrote the frame: %q", frame)
	}
}

// BenchmarkEnvelope prices one request and one reply through the envelope
// codec, each encoded and decoded, against encoding/json, around a
// counts-shaped payload of 1 KiB and 64 KiB.
func BenchmarkEnvelope(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10} {
		payload := []byte(`{"counts":{`)
		for k := 0; len(payload) < size-32; k++ {
			payload = fmt.Appendf(payload, `"%012b":%d,`, k, 1+k%97)
		}
		payload = append(payload[:len(payload)-1], `},"exp_val":-1.25}`...)
		req := request{ID: 12345, Service: "serve.aer", Method: "exec", Payload: payload}
		resp := response{ID: 12345, Payload: payload}
		b.Run(fmt.Sprintf("json/%dKiB", size>>10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r request
				var p response
				frame, _ := json.Marshal(req)
				json.Unmarshal(frame, &r)
				frame, _ = json.Marshal(resp)
				json.Unmarshal(frame, &p)
			}
		})
		b.Run(fmt.Sprintf("hand/%dKiB", size>>10), func(b *testing.B) {
			b.ReportAllocs()
			var frame []byte
			for i := 0; i < b.N; i++ {
				frame, _ = appendRequest(frame[:0], req)
				decodeRequest(frame)
				frame, _ = appendResponse(frame[:0], resp)
				decodeResponse(frame)
			}
		})
	}
}
