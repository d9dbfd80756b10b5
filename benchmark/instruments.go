//go:build linux

package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/defw"
)

// proxy is the first outside-in instrument of the traced run: a TCP relay
// between the clients and qfwd that counts bytes and DEFw frames (a 4-byte
// big-endian length, then the body) in each direction. A frame from the
// client is one RPC.
type proxy struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn

	bytesUp, bytesDown   atomic.Int64
	framesUp, framesDown atomic.Int64
}

func startProxy(target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, s)
			p.mu.Unlock()
			p.wg.Add(2)
			go p.relay(s, c, &p.bytesUp, &p.framesUp)
			go p.relay(c, s, &p.bytesDown, &p.framesDown)
		}
	}()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

// relay forwards whole frames from src to dst until either side closes.
func (p *proxy) relay(dst, src net.Conn, bytes, frames *atomic.Int64) {
	defer p.wg.Done()
	defer dst.Close()
	r := bufio.NewReaderSize(src, 64<<10)
	w := bufio.NewWriterSize(dst, 64<<10) // header and body leave as one write
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int64(binary.BigEndian.Uint32(hdr[:]))
		if _, err := w.Write(hdr[:]); err != nil {
			return
		}
		if _, err := io.CopyN(w, r, n); err != nil {
			return
		}
		// Count before the frame leaves: whoever has received it must find
		// it in the counters.
		bytes.Add(4 + n)
		frames.Add(1)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// close stops accepting, closes every relayed connection and waits for the
// relay goroutines.
func (p *proxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// wire is a snapshot of the proxy's counters.
type wire struct{ bytes, frames, rpcs int64 }

func (p *proxy) snapshot() wire {
	up, down := p.framesUp.Load(), p.framesDown.Load()
	return wire{bytes: p.bytesUp.Load() + p.bytesDown.Load(), frames: up + down, rpcs: up}
}

// scrape is the second instrument: qfwd's own Prometheus endpoint, read
// into a map from the sample name with its labels to the value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// qpmSample names one of the QPM's per-backend samples as /metrics prints it.
func qpmSample(name, backend string) string {
	return fmt.Sprintf(`%s{backend="%s"}`, name, backend)
}

// echoRTT measures the DEFw layer alone: the median round trip of a Call
// carrying size bytes each way to an echo handler on a real TCP listener in
// this process, in microseconds.
func echoRTT(size int) (float64, error) {
	srv := defw.NewServer()
	srv.Register("echo", defw.HandlerFunc(func(_ string, payload []byte) ([]byte, error) { return payload, nil }))
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cli, err := defw.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	// Payloads travel as raw JSON: a string literal of the requested size.
	payload := []byte(`"` + strings.Repeat("x", size-2) + `"`)
	reps := 200
	if size >= 1<<20 {
		reps = 20
	}
	var us []float64
	for i := 0; i < reps+reps/10; i++ {
		t0 := time.Now()
		out, err := cli.Call("echo", "echo", payload)
		if err != nil {
			return 0, err
		}
		if len(out) != len(payload) {
			return 0, fmt.Errorf("echo returned %d bytes for %d", len(out), len(payload))
		}
		if i >= reps/10 { // the first tenth warms the connection
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(us), nil
}
