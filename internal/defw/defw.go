// Package defw implements the Distributed Execution Framework: the
// lightweight RPC layer QFw uses between the application frontend and the
// Quantum Platform Manager services. It offers a TCP transport
// (length-prefixed JSON frames) for cross-process deployment and an
// in-process pipe transport for single-binary runs, with synchronous calls
// and asynchronous calls with correlation IDs — the mechanism behind QFw's
// non-blocking execution of variational workloads.
//
// A frame's body is the JSON envelope of one request or reply, and its
// bytes are exactly json.Marshal's. envelope.go writes and reads the
// common shape by hand: plain-ASCII names with nothing to escape, no
// error text, and a payload that is valid JSON that encoding/json's
// compaction leaves unchanged. Everything else, every error reply
// included, goes through encoding/json. A payload read by hand is a slice
// of its frame, not a copy. Neither side sends a frame the other's decoder
// would refuse: a payload at encoding/json's nesting limit is refused, and
// a reply that cannot be encoded goes back as an error reply.
package defw

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// request is the wire format of a call.
type request struct {
	ID      uint64          `json:"id"`
	Service string          `json:"service"`
	Method  string          `json:"method"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// response is the wire format of a reply.
type response struct {
	ID      uint64          `json:"id"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Err     string          `json:"err,omitempty"`
}

// Handler serves the methods of one registered service.
type Handler interface {
	Handle(method string, payload []byte) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(method string, payload []byte) ([]byte, error)

// Handle calls f.
func (f HandlerFunc) Handle(method string, payload []byte) ([]byte, error) {
	return f(method, payload)
}

// Server hosts services and serves connections.
type Server struct {
	mu       sync.RWMutex
	services map[string]Handler
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{services: make(map[string]Handler), conns: make(map[net.Conn]struct{})}
}

// Register exposes a service under a name; re-registering replaces it.
func (s *Server) Register(name string, h Handler) {
	s.mu.Lock()
	s.services[name] = h
	s.mu.Unlock()
}

// ListenTCP starts accepting connections on addr ("127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) ListenTCP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.trackConn(conn)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.ServeConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

func (s *Server) trackConn(c net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

// ServeConn synchronously serves one connection until it closes.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	var writeMu sync.Mutex
	var handlers sync.WaitGroup
	for {
		frame, err := readFrame(conn)
		if err != nil {
			break
		}
		req, err := decodeRequest(frame)
		if err != nil {
			break
		}
		handlers.Add(1)
		go func(req request) {
			defer handlers.Done()
			resp := s.dispatch(req)
			bp := framePool.Get().(*[]byte)
			buf, err := appendResponse(startFrame(bp), resp)
			// A reply that cannot be encoded, or that is over the cap, is
			// replaced by an error reply, which always encodes: the caller
			// gets an answer instead of a dead connection or no reply.
			if err != nil {
				resp = response{ID: resp.ID, Err: "defw: reply not encodable: " + err.Error()}
				buf, _ = appendResponse(buf[:frameHeader], resp)
			}
			if n := len(buf) - frameHeader; uint64(n) > uint64(maxFrameBytes) {
				resp = response{ID: resp.ID, Err: fmt.Sprintf("defw: response exceeds frame cap (%d bytes)", n)}
				buf, _ = appendResponse(buf[:frameHeader], resp)
			}
			writeMu.Lock()
			sendFrame(conn, buf)
			writeMu.Unlock()
			putFrame(bp, buf)
		}(req)
	}
	handlers.Wait()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) dispatch(req request) response {
	s.mu.RLock()
	h, ok := s.services[req.Service]
	s.mu.RUnlock()
	if !ok {
		return response{ID: req.ID, Err: fmt.Sprintf("defw: unknown service %q", req.Service)}
	}
	payload, err := safeHandle(h, req.Method, req.Payload)
	if err != nil {
		return response{ID: req.ID, Err: err.Error()}
	}
	return response{ID: req.ID, Payload: payload}
}

func safeHandle(h Handler, method string, payload []byte) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("defw: handler panic: %v", p)
		}
	}()
	return h.Handle(method, payload)
}

// Close stops the listener and closes active connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// maxFrameBytes caps one RPC frame in both directions. Oversized outbound
// frames (e.g. an enormous batch payload) fail their call cleanly before a
// single byte hits the wire, so the connection survives; only a peer that
// actually sends an oversized length prefix tears the transport down.
var maxFrameBytes = uint32(1 << 28)

// eagerFrameBytes is the largest body readFrame allocates whole from the
// length prefix alone. A longer body grows its buffer as bytes arrive, so a
// peer that declares 256 MiB and sends nothing costs next to nothing.
const eagerFrameBytes = 1 << 20

func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("defw: frame too large (%d bytes)", n)
	}
	if n <= eagerFrameBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(buf) < int(n) {
		return nil, io.ErrUnexpectedEOF
	}
	return buf, nil
}

// framePool recycles the buffers frames are encoded in. Buffers that grew
// past maxPooledFrame are dropped instead of pooled, so one huge reply does
// not pin its memory until the next GC cycle clears the pool.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 4 << 20

// frameHeader is the length of a frame's big-endian length prefix.
const frameHeader = 4

// startFrame returns bp's buffer emptied but for the frameHeader bytes
// that sendFrame fills in, so a body can be encoded straight behind them.
func startFrame(bp *[]byte) []byte {
	return append((*bp)[:0], 0, 0, 0, 0)
}

// putFrame returns a buffer grown from startFrame(bp) to the pool.
func putFrame(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledFrame {
		*bp = buf[:0]
		framePool.Put(bp)
	}
}

// sendFrame fills in the length of buf, a frame grown from startFrame, and
// sends it in a single Write: one syscall and, with TCP_NODELAY, one
// segment for a small frame instead of a header segment followed by a body
// segment.
func sendFrame(w io.Writer, buf []byte) error {
	n := len(buf) - frameHeader
	if uint64(n) > uint64(maxFrameBytes) {
		return fmt.Errorf("defw: frame too large (%d bytes, cap %d)", n, maxFrameBytes)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	_, err := w.Write(buf)
	return err
}

// writeFrame sends data as one frame.
func writeFrame(w io.Writer, data []byte) error {
	bp := framePool.Get().(*[]byte)
	buf := append(startFrame(bp), data...)
	err := sendFrame(w, buf)
	putFrame(bp, buf)
	return err
}

// Call is an in-flight asynchronous RPC.
type Call struct {
	Done    chan struct{}
	payload []byte
	err     error
}

// Result blocks until completion and returns the reply.
func (c *Call) Result() ([]byte, error) {
	<-c.Done
	return c.payload, c.err
}

// Client is one connection to a DEFw server.
type Client struct {
	conn   net.Conn
	nextID atomic.Uint64

	writeMu sync.Mutex
	mu      sync.Mutex
	pending map[uint64]*Call
	closed  bool
}

// Dial connects to a DEFw server over TCP.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// NewPipeClient connects to a server in-process through net.Pipe — the
// transport used when the whole stack runs in one binary (and the baseline
// for the RPC-transport ablation benchmark).
func NewPipeClient(s *Server) *Client {
	cliConn, srvConn := net.Pipe()
	s.trackConn(srvConn)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.ServeConn(srvConn)
	}()
	return newClient(cliConn)
}

func newClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]*Call)}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		frame, err := readFrame(c.conn)
		if err != nil {
			c.failAll(err)
			return
		}
		resp, err := decodeResponse(frame)
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		call := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if call == nil {
			continue
		}
		if resp.Err != "" {
			call.err = errors.New(resp.Err)
		} else {
			call.payload = resp.Payload
		}
		close(call.Done)
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	for id, call := range c.pending {
		call.err = fmt.Errorf("defw: connection lost: %w", err)
		close(call.Done)
		delete(c.pending, id)
	}
	c.closed = true
	c.mu.Unlock()
}

// Go issues an asynchronous call.
func (c *Client) Go(service, method string, payload []byte) *Call {
	call := &Call{Done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		call.err = errors.New("defw: client closed")
		close(call.Done)
		return call
	}
	id := c.nextID.Add(1)
	c.pending[id] = call
	c.mu.Unlock()

	bp := framePool.Get().(*[]byte)
	buf, err := appendRequest(startFrame(bp), request{ID: id, Service: service, Method: method, Payload: payload})
	if err == nil {
		c.writeMu.Lock()
		err = sendFrame(c.conn, buf)
		c.writeMu.Unlock()
	}
	putFrame(bp, buf)
	if err != nil {
		// A lost connection may have failed the call already (failAll):
		// only the side whose delete takes it out of pending completes it.
		c.mu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if mine {
			call.err = err
			close(call.Done)
		}
	}
	return call
}

// Call issues a synchronous call.
func (c *Client) Call(service, method string, payload []byte) ([]byte, error) {
	return c.Go(service, method, payload).Result()
}

// Close tears the connection down, failing outstanding calls.
func (c *Client) Close() {
	c.conn.Close()
}

// CallJSON marshals req, performs a synchronous call, and unmarshals into resp.
func CallJSON(c *Client, service, method string, req, resp any) error {
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out, err := c.Call(service, method, payload)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	return json.Unmarshal(out, resp)
}

// HandleJSON is the server-side twin of CallJSON: it adapts a typed method
// to the raw-payload shape a Handler dispatches to — unmarshal the payload
// into a Req, call fn, marshal its Resp. who names the service in the one
// decode error every method then shares ("<who>: bad payload: …"). An empty
// payload is the zero Req: methods without arguments are called with none.
func HandleJSON[Req, Resp any](who string, fn func(Req) (Resp, error)) func(payload []byte) ([]byte, error) {
	return func(payload []byte) ([]byte, error) {
		var req Req
		if len(payload) > 0 {
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, fmt.Errorf("%s: bad payload: %w", who, err)
			}
		}
		resp, err := fn(req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	}
}
