package defw

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	// Length prefix claiming 1 GiB must be refused before allocation.
	buf.Write([]byte{0x40, 0x00, 0x00, 0x00})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"hello":"world"}`)
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip %q", got)
	}
}

// countingConn records every Write it forwards, so a test can see how many
// writes (syscalls, on a real socket) a frame costs.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// TestFrameIsOneWrite pins both halves of the framing contract: the wire
// format is a 4-byte big-endian length followed by the body, and each frame
// — request and reply alike — reaches the connection as exactly one Write.
func TestFrameIsOneWrite(t *testing.T) {
	s := NewServer()
	s.Register("echo", HandlerFunc(echoHandler))
	cliConn, srvConn := net.Pipe()
	srvCount := &countingConn{Conn: srvConn}
	cliCount := &countingConn{Conn: cliConn}
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(srvCount) }()
	c := newClient(cliCount)

	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := c.Call("echo", "run", []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	<-done

	for side, conn := range map[string]*countingConn{"client": cliCount, "server": srvCount} {
		writes := conn.snapshot()
		if len(writes) != calls {
			t.Fatalf("%s issued %d writes for %d frames, want one write per frame", side, len(writes), calls)
		}
		for i, w := range writes {
			if len(w) < 4 || int(binary.BigEndian.Uint32(w[:4])) != len(w)-4 {
				t.Fatalf("%s write %d is not a whole length-prefixed frame: % x", side, i, w[:min(len(w), 8)])
			}
			if w[4] != '{' {
				t.Fatalf("%s write %d body does not start a JSON object: %q", side, i, w[4:])
			}
		}
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 'x', 'y'}) // claims 10 bytes, has 2
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestDeclaredLengthIsNotAllocated: a header declaring the largest legal
// frame followed by EOF must fail as a short body without the reader
// allocating anything near the declared 256 MiB.
func TestDeclaredLengthIsNotAllocated(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
		t.Fatalf("reading a bodiless 256 MiB header allocated %d bytes", d)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: it must not
// panic, and a body it returns can only be made of bytes that followed the
// 4-byte header.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, []byte(`{"id":1,"service":"qpm.aer","method":"exec"}`))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 10, 'x', 'y'})
	f.Add([]byte{0x10, 0, 0, 0})
	f.Add([]byte{0, 0x10, 0, 1, 'z'})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readFrame(bytes.NewReader(data))
		if err == nil && len(body) > len(data)-4 {
			t.Fatalf("body of %d bytes from %d input bytes", len(body), len(data))
		}
	})
}

func TestLargePayloadThroughRPC(t *testing.T) {
	s := NewServer()
	s.Register("echo", HandlerFunc(func(m string, p []byte) ([]byte, error) { return p, nil }))
	c := NewPipeClient(s)
	defer func() { c.Close(); s.Close() }()
	// A ~1 MiB JSON payload (quoted string).
	big := `"` + strings.Repeat("a", 1<<20) + `"`
	out, err := c.Call("echo", "run", []byte(big))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(big) {
		t.Fatalf("size %d vs %d", len(out), len(big))
	}
}

func TestOversizedCallFailsCleanly(t *testing.T) {
	// A batch RPC whose payload exceeds the frame cap must return a clean
	// error on that call without killing the connection. The cap is
	// shrunk so the test does not allocate 256 MiB.
	old := maxFrameBytes
	maxFrameBytes = 1 << 16
	defer func() { maxFrameBytes = old }()

	s := NewServer()
	s.Register("echo", HandlerFunc(func(m string, p []byte) ([]byte, error) { return p, nil }))
	c := NewPipeClient(s)
	defer func() { c.Close(); s.Close() }()

	big := `"` + strings.Repeat("b", 1<<17) + `"`
	if _, err := c.Call("echo", "run", []byte(big)); err == nil || !strings.Contains(err.Error(), "frame too large") {
		t.Fatalf("oversized call error = %v, want frame-too-large", err)
	}
	// The connection must survive: a normal call still round-trips.
	out, err := c.Call("echo", "run", []byte(`"ok"`))
	if err != nil {
		t.Fatalf("connection dead after oversized call: %v", err)
	}
	if string(out) != `"ok"` {
		t.Fatalf("round trip %q", out)
	}
}

func TestOversizedResponseFailsCleanly(t *testing.T) {
	// A handler reply over the cap becomes an RPC error, not a hung call
	// or dead connection.
	old := maxFrameBytes
	maxFrameBytes = 1 << 16
	defer func() { maxFrameBytes = old }()

	s := NewServer()
	s.Register("blob", HandlerFunc(func(m string, p []byte) ([]byte, error) {
		return []byte(`"` + strings.Repeat("r", 1<<17) + `"`), nil
	}))
	s.Register("echo", HandlerFunc(func(m string, p []byte) ([]byte, error) { return p, nil }))
	c := NewPipeClient(s)
	defer func() { c.Close(); s.Close() }()

	if _, err := c.Call("blob", "run", nil); err == nil || !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("oversized response error = %v, want frame-cap error", err)
	}
	if _, err := c.Call("echo", "run", []byte(`"ok"`)); err != nil {
		t.Fatalf("connection dead after oversized response: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := NewServer()
	s.Register("echo", HandlerFunc(echoHandler))
	addr, err := s.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	call := c.Go("echo", "slow", nil)
	s.Close()
	if _, err := call.Result(); err == nil {
		// The slow handler may have finished before close; that's fine too —
		// but a second call must now fail.
		if _, err := c.Call("echo", "run", nil); err == nil {
			t.Fatal("call succeeded after server close")
		}
	}
}

// TestGoRacesConnectionLoss: the connection drops while Go is writing a
// request, so the read loop's failAll and Go's own write error both try to
// complete the call. It must complete once, with an error, and not panic
// on a second close of Done.
func TestGoRacesConnectionLoss(t *testing.T) {
	for i := 0; i < 200; i++ {
		cliConn, srvConn := net.Pipe()
		c := newClient(cliConn)
		issued := make(chan *Call)
		go func() { issued <- c.Go("echo", "run", []byte(`1`)) }()
		time.Sleep(time.Millisecond)
		srvConn.Close()
		if _, err := (<-issued).Result(); err == nil {
			t.Fatal("a call whose connection dropped mid-write succeeded")
		}
		c.Close()
	}
}
