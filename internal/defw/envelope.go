package defw

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// The envelope codec. appendRequest and appendResponse write the bytes
// json.Marshal writes for a request or a response: the struct's field
// order, its omitempty rule and its compaction of the RawMessage payload.
// They write those bytes by hand when no escaping or compaction could
// change them, and call json.Marshal otherwise. decodeRequest and
// decodeResponse read that hand-written shape without encoding/json and
// hand every other frame to json.Unmarshal, so both directions behave
// exactly as encoding/json does, with one scan of the payload each way
// and no copy of it on the way in. The one departure: the encoders refuse a
// payload nested exactly as deep as encoding/json allows, since the
// envelope adds a level and the peer's decoder would refuse the frame.

// appendRequest appends json.Marshal(req) to dst. It takes the request by
// value, so it is built on the stack unless json.Marshal is called.
func appendRequest(dst []byte, req request) ([]byte, error) {
	if !plainString(req.Service) || !plainString(req.Method) || !plainPayload(req.Payload) {
		return appendMarshal(dst, req, req.Payload)
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, req.ID, 10)
	dst = append(dst, `,"service":"`...)
	dst = append(dst, req.Service...)
	dst = append(dst, `","method":"`...)
	dst = append(dst, req.Method...)
	dst = append(dst, '"')
	return appendPayload(dst, req.Payload), nil
}

// appendResponse appends json.Marshal(resp) to dst. Error replies always
// take json.Marshal: they are rare, and their text is caller-made.
func appendResponse(dst []byte, resp response) ([]byte, error) {
	if resp.Err != "" || !plainPayload(resp.Payload) {
		return appendMarshal(dst, resp, resp.Payload)
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, resp.ID, 10)
	return appendPayload(dst, resp.Payload), nil
}

// appendPayload closes an envelope whose plain fields are written: the
// payload field, if any, then the closing brace.
func appendPayload(dst []byte, payload json.RawMessage) []byte {
	if len(payload) > 0 {
		dst = append(dst, `,"payload":`...)
		dst = append(dst, payload...)
	}
	return append(dst, '}')
}

// appendMarshal appends json.Marshal(v), an envelope around payload, to
// dst. json.Marshal checks payload on its own, so it writes a payload
// nested exactly maxJSONDepth deep, but inside the envelope that payload is
// one level deeper than json.Unmarshal reads: the peer would drop the
// connection and every call on it. Such a payload is refused here instead.
func appendMarshal(dst []byte, v any, payload json.RawMessage) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	if valid, _ := scanJSON(payload, 1); len(payload) > 0 && !valid {
		return dst, errTooDeep
	}
	return append(dst, data...), nil
}

// errTooDeep refuses a payload that fits json.Marshal but not a frame.
var errTooDeep = fmt.Errorf("defw: payload nests more than %d levels deep, the limit inside a frame", maxJSONDepth-1)

// plainString reports whether encoding/json writes s between quotes
// unchanged: printable ASCII with nothing it escapes, HTML's <, > and &
// included.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// plainPayload reports whether encoding/json copies payload into the
// envelope unchanged. It compacts a RawMessage with HTML escaping, so it
// drops whitespace outside strings and rewrites <, >, & and U+2028/U+2029
// (whose UTF-8 starts with 0xE2); a valid payload with none of these goes
// through as is. An empty payload is omitted. The payload is checked at
// the depth it has inside the envelope.
func plainPayload(payload json.RawMessage) bool {
	if len(payload) == 0 {
		return true
	}
	valid, compact := scanJSON(payload, 1)
	return valid && compact
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// decodeRequest is json.Unmarshal of frame into a fresh request. The
// payload of a hand-read frame is a slice of frame, not a copy. That is
// safe because readFrame allocates every frame afresh and its caller
// decodes it once, so the payload is the frame's only user.
func decodeRequest(frame []byte) (request, error) {
	if req, ok := readRequest(frame); ok {
		return req, nil
	}
	var req request
	err := json.Unmarshal(frame, &req)
	return req, err
}

// decodeResponse is json.Unmarshal of frame into a fresh response, with
// the same aliasing as decodeRequest.
func decodeResponse(frame []byte) (response, error) {
	if resp, ok := readResponse(frame); ok {
		return resp, nil
	}
	var resp response
	err := json.Unmarshal(frame, &resp)
	return resp, err
}

// readRequest parses {"id":N,"service":"S","method":"M"[,"payload":P]}
// with plain digits and plain strings, and nothing else.
func readRequest(b []byte) (request, bool) {
	var req request
	b, ok := skip(b, `{"id":`)
	if ok {
		req.ID, b, ok = readID(b)
	}
	if ok {
		b, ok = skip(b, `,"service":"`)
	}
	if ok {
		req.Service, b, ok = readString(b)
	}
	if ok {
		b, ok = skip(b, `,"method":"`)
	}
	if ok {
		req.Method, b, ok = readString(b)
	}
	if ok {
		req.Payload, ok = readTail(b)
	}
	return req, ok
}

// readResponse parses {"id":N[,"payload":P]} with plain digits, and
// nothing else: an error reply takes json.Unmarshal.
func readResponse(b []byte) (response, bool) {
	var resp response
	b, ok := skip(b, `{"id":`)
	if ok {
		resp.ID, b, ok = readID(b)
	}
	if ok {
		resp.Payload, ok = readTail(b)
	}
	return resp, ok
}

func skip(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// readID reads a JSON number that json.Unmarshal stores in a uint64
// unchanged: digits without a leading zero, at most math.MaxUint64.
func readID(b []byte) (uint64, []byte, bool) {
	i := 0
	var id uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if id > (math.MaxUint64-d)/10 {
			return 0, b, false
		}
		id = id*10 + d
	}
	if i == 0 || i > 1 && b[0] == '0' {
		return 0, b, false
	}
	return id, b[i:], true
}

// readString reads the rest of a string whose opening quote is read, and
// its closing quote. Only the bytes plainString allows, < > & aside, are
// read: they are the ones json.Unmarshal copies unchanged.
func readString(b []byte) (string, []byte, bool) {
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return string(b[:i]), b[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", b, false
		}
	}
	return "", b, false
}

// readTail reads what follows the last plain field: a closing brace, or
// the payload field and then the closing brace. The payload is whatever
// lies between them, so validation is what refuses a second field after
// it ({"id":1,"payload":1,"err":"x"}); whitespace around it would be
// dropped by json.Unmarshal, so it is refused too. The payload nests one
// level inside the envelope, and json.Unmarshal counts that level.
func readTail(b []byte) (json.RawMessage, bool) {
	if len(b) == 1 && b[0] == '}' {
		return nil, true
	}
	p, ok := skip(b, `,"payload":`)
	if !ok || len(p) < 2 || p[len(p)-1] != '}' {
		return nil, false
	}
	p = p[: len(p)-1 : len(p)-1]
	if isSpace(p[0]) || isSpace(p[len(p)-1]) {
		return nil, false
	}
	if valid, _ := scanJSON(p, 1); !valid {
		return nil, false
	}
	return p, true
}

// scanJSON reports json.Valid(p) for p nested depth levels deep, and
// whether p is compact: no whitespace outside strings and no byte that
// HTML-safe compaction rewrites. It is json.Valid's grammar, nesting limit
// included, without its per-byte state machine, and is fuzzed against it.
func scanJSON(p []byte, depth int) (valid, compact bool) {
	s := jsonScanner{p: p, depth: depth, compact: true}
	valid = s.value() && s.space() == len(p)
	return valid, s.compact
}

// maxJSONDepth is encoding/json's nesting limit: deeper input is invalid.
const maxJSONDepth = 10000

type jsonScanner struct {
	p       []byte
	i       int
	depth   int
	compact bool
}

// space skips whitespace and returns the offset of the next byte.
func (s *jsonScanner) space() int {
	for s.i < len(s.p) && isSpace(s.p[s.i]) {
		s.i++
		s.compact = false
	}
	return s.i
}

// next returns the next byte after whitespace, or 0 at the end.
func (s *jsonScanner) next() byte {
	if s.space() == len(s.p) {
		return 0
	}
	return s.p[s.i]
}

func (s *jsonScanner) value() bool {
	switch c := s.next(); {
	case c == '{' || c == '[':
		return s.container(c == '{')
	case c == '"':
		return s.quoted()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		return s.number()
	}
	return false
}

// container reads an object or an array from its opening bracket.
func (s *jsonScanner) container(object bool) bool {
	end := byte(']')
	if object {
		end = '}'
	}
	if s.depth++; s.depth > maxJSONDepth {
		return false
	}
	s.i++
	if s.next() == end {
		s.i++
		s.depth--
		return true
	}
	for {
		if object {
			if s.next() != '"' || !s.quoted() || s.next() != ':' {
				return false
			}
			s.i++
		}
		if !s.value() {
			return false
		}
		switch s.next() {
		case ',':
			s.i++
		case end:
			s.i++
			s.depth--
			return true
		default:
			return false
		}
	}
}

// quoted reads a string from its opening quote.
func (s *jsonScanner) quoted() bool {
	for s.i++; s.i < len(s.p); s.i++ {
		switch c := s.p[s.i]; {
		case c == '"':
			s.i++
			return true
		case c < 0x20:
			return false
		case c == '<' || c == '>' || c == '&' || c == 0xE2:
			s.compact = false
		case c == '\\':
			s.i++
			if s.i == len(s.p) {
				return false
			}
			switch s.p[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if s.i+4 >= len(s.p) {
					return false
				}
				for _, h := range s.p[s.i+1 : s.i+5] {
					if !isHex(h) {
						return false
					}
				}
				s.i += 4
			default:
				return false
			}
		}
	}
	return false
}

func (s *jsonScanner) literal(word string) bool {
	if len(s.p)-s.i < len(word) || string(s.p[s.i:s.i+len(word)]) != word {
		return false
	}
	s.i += len(word)
	return true
}

// number reads -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *jsonScanner) number() bool {
	if s.p[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.p) && s.p[s.i] == '0' {
		s.i++
	} else if !s.digits() {
		return false
	}
	if s.i < len(s.p) && s.p[s.i] == '.' {
		s.i++
		if !s.digits() {
			return false
		}
	}
	if s.i < len(s.p) && (s.p[s.i] == 'e' || s.p[s.i] == 'E') {
		s.i++
		if s.i < len(s.p) && (s.p[s.i] == '+' || s.p[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return false
		}
	}
	return true
}

// digits reads one or more decimal digits.
func (s *jsonScanner) digits() bool {
	start := s.i
	for s.i < len(s.p) && s.p[s.i] >= '0' && s.p[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
