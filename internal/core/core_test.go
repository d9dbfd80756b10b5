package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/defw"
	"qfw/internal/trace"
)

// fakeExec counts executions and can be told to fail, stall, or echo.
type fakeExec struct {
	name  string
	mu    sync.Mutex
	calls int
	delay time.Duration
	fail  bool
}

func (f *fakeExec) Name() string { return f.name }
func (f *fakeExec) Capabilities() Capabilities {
	return Capabilities{Backend: f.name, Subbackends: []string{"default"}, CPU: true}
}
func (f *fakeExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail {
		return ExecResult{}, fmt.Errorf("fake failure")
	}
	return ExecResult{Counts: map[string]int{"00": opts.Shots}}, nil
}
func (f *fakeExec) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func bell(t *testing.T) CircuitSpec {
	t.Helper()
	c := circuit.New(2)
	c.H(0).CX(0, 1).MeasureAll()
	c.Name = "bell"
	spec, err := SpecFromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecRoundTrip(t *testing.T) {
	spec := bell(t)
	c, err := spec.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if c.NQubits != 2 || len(c.Gates) != 4 {
		t.Fatalf("round trip wrong: %d qubits %d gates", c.NQubits, len(c.Gates))
	}
	if c.Name != "bell" {
		t.Fatalf("name lost: %q", c.Name)
	}
}

func TestQPMLifecycle(t *testing.T) {
	exec := &fakeExec{name: "fake"}
	q := NewQPM(exec, 2, trace.NewRecorder())
	defer q.Close()
	spec := bell(t)

	id, err := q.Submit(spec, RunOptions{Shots: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.List()[id]; !ok {
		t.Fatalf("submitted task %s not listed", id)
	}
	res, err := q.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["00"] != 7 || res.Backend != "fake" {
		t.Fatalf("result %+v", res)
	}
	if res.Timings.TotalMS < 0 || res.Timings.ExecMS < 0 {
		t.Fatalf("timings %+v", res.Timings)
	}
	if st := q.List()[id]; st != StatusDone {
		t.Fatalf("status %s, want done", st)
	}
}

func TestQPMFailurePropagates(t *testing.T) {
	q := NewQPM(&fakeExec{name: "bad", fail: true}, 1, nil)
	defer q.Close()
	id, err := q.Submit(bell(t), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(id); err == nil || !strings.Contains(err.Error(), "fake failure") {
		t.Fatalf("err = %v", err)
	}
	if st := q.List()[id]; st != StatusFailed {
		t.Fatalf("status %s", st)
	}
}

func TestQPMConcurrentWorkers(t *testing.T) {
	exec := &fakeExec{name: "slow", delay: 30 * time.Millisecond}
	q := NewQPM(exec, 8, nil)
	defer q.Close()
	spec := bell(t)
	start := time.Now()
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := q.Submit(spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if _, err := q.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("8 tasks on 8 workers took %v (serialized?)", el)
	}
	if exec.callCount() != 8 {
		t.Fatalf("calls %d", exec.callCount())
	}
}

func TestQPMOverRPC(t *testing.T) {
	q := NewQPM(&fakeExec{name: "rpc"}, 2, nil)
	defer q.Close()
	server := defw.NewServer()
	server.Register(ServiceName("rpc"), q)
	client := defw.NewPipeClient(server)
	defer func() { client.Close(); server.Close() }()

	f, err := NewFrontend(client, Properties{Backend: "rpc", Subbackend: "default"})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(2)
	c.H(0).CX(0, 1).MeasureAll()
	res, err := f.Run(c, RunOptions{Shots: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["00"] != 11 {
		t.Fatalf("counts %v", res.Counts)
	}
	if res.Subbackend != "default" {
		t.Fatalf("subbackend not forwarded from properties: %q", res.Subbackend)
	}
	caps, err := f.Capabilities()
	if err != nil {
		t.Fatal(err)
	}
	if caps.Backend != "rpc" {
		t.Fatalf("caps %+v", caps)
	}
	// A synchronous Run is one exec round trip and the QPM reaps its task.
	list, err := f.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("Frontend.Run left tasks behind: %v", list)
	}
	// An asynchronous handle is the same exec call, read later: it leaves
	// nothing behind either.
	p, err := f.RunAsync(c, RunOptions{Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res, err = p.Result(); err != nil || res.Counts["00"] != 5 {
		t.Fatalf("async result %+v, %v", res, err)
	}
	if list, err = f.List(); err != nil || len(list) != 0 {
		t.Fatalf("list after RunAsync %v, %v; want empty", list, err)
	}
}

// TestAsyncPendingStatus: a handle reports running until its reply has
// arrived and done afterwards, for a single run and a batch alike.
func TestAsyncPendingStatus(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 2, nil)
	defer q.Close()
	defer g.open()
	f := frontendOver(t, q, false)
	c := circuit.New(1)
	c.H(0).MeasureAll()
	p, err := f.RunAsync(c, RunOptions{Shots: 3})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := f.RunBatchAsync(c, []Bindings{nil, nil}, RunOptions{Shots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st, bst := p.Status(), pb.Status(); st != StatusRunning || bst != StatusRunning {
		t.Fatalf("behind a closed gate: status %s, batch status %s; want running", st, bst)
	}
	g.open()
	res, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["00"] != 1 {
		t.Fatalf("counts %v", res.Counts)
	}
	if results, err := pb.Results(); err != nil || len(results) != pb.N {
		t.Fatalf("batch results %v, %v; want %d", results, err, pb.N)
	}
	if st, bst := p.Status(), pb.Status(); st != StatusDone || bst != StatusDone {
		t.Fatalf("after the replies: status %s, batch status %s; want done", st, bst)
	}
}

// TestDeadClientLeavesNoTask: a client that dies with an asynchronous run
// and batch in flight leaves nothing in the QPM's table once they finish.
func TestDeadClientLeavesNoTask(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 2, nil)
	defer q.Close()
	defer g.open()
	server := defw.NewServer()
	server.Register(ServiceName("gated"), q)
	client := defw.NewPipeClient(server)
	f, err := NewFrontend(client, Properties{Backend: "gated"})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(1)
	c.H(0).MeasureAll()
	p, err := f.RunAsync(c, RunOptions{Shots: 3})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := f.RunBatchAsync(c, []Bindings{nil, nil, nil}, RunOptions{Shots: 3})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(q.List()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the two calls never reached the QPM: %v", q.List())
		}
		time.Sleep(time.Millisecond)
	}
	client.Close()
	if _, err := p.Result(); err == nil {
		t.Fatal("a run on a closed connection returned a result")
	}
	if _, err := pb.Results(); err == nil {
		t.Fatal("a batch on a closed connection returned results")
	}
	g.open()
	server.Close() // returns once the dead connection's handlers have
	waitIdle(t, q)

	second := defw.NewServer()
	second.Register(ServiceName("gated"), q)
	client2 := defw.NewPipeClient(second)
	defer func() { client2.Close(); second.Close() }()
	f2, err := NewFrontend(client2, Properties{Backend: "gated"})
	if err != nil {
		t.Fatal(err)
	}
	if list, err := f2.List(); err != nil || len(list) != 0 {
		t.Fatalf("task table after the dead client's calls finished: %v, %v; want empty", list, err)
	}
}

func TestInfeasibleDetection(t *testing.T) {
	err := Infeasible("state vector of %d qubits", 40)
	if !IsInfeasible(err) {
		t.Fatal("direct detection failed")
	}
	// After crossing an RPC boundary the error is a plain string.
	flat := fmt.Errorf("%s", err.Error())
	if !IsInfeasible(flat) {
		t.Fatal("string detection failed")
	}
	if IsInfeasible(nil) || IsInfeasible(fmt.Errorf("other")) {
		t.Fatal("false positive")
	}
}

func TestUnknownMethodAndBadPayload(t *testing.T) {
	q := NewQPM(&fakeExec{name: "x"}, 1, nil)
	defer q.Close()
	if _, err := q.Handle("nope", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := q.Handle("exec", []byte("not json")); err == nil {
		t.Fatal("bad payload accepted")
	}
	if _, err := q.Submit(CircuitSpec{}, RunOptions{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestFrontendRequiresBackend(t *testing.T) {
	if _, err := NewFrontend(nil, Properties{}); err == nil {
		t.Fatal("empty backend accepted")
	}
}

// TestQPMResolvesShotDefaultOnce pins the single shot-default site: every
// entry point hands the executor 0 for an analytic request (shots 0 with an
// observable), 1024 for shots 0 without one, and any explicit count as is.
func TestQPMResolvesShotDefaultOnce(t *testing.T) {
	q := NewQPM(&fakeExec{name: "fake"}, 2, nil)
	defer q.Close()
	spec := bell(t)
	obs := &Observable{Fields: []float64{1}}
	cases := []struct {
		opts RunOptions
		want int
	}{
		{RunOptions{}, 1024},
		{RunOptions{Shots: -3}, 1024},
		{RunOptions{Observable: obs}, 0},
		{RunOptions{Shots: 64}, 64},
		{RunOptions{Shots: 64, Observable: obs}, 64},
	}
	for _, tc := range cases {
		res, err := q.Exec(spec, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := q.Submit(spec, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		waited, err := q.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		batch, errs, err := q.ExecBatch(spec, []Bindings{nil, nil}, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range append([]*Result{res, waited}, batch...) {
			if r == nil {
				t.Fatalf("%+v: missing result (errs %v)", tc.opts, errs)
			}
			if got := r.Counts["00"]; got != tc.want {
				t.Fatalf("%+v: executor received %d shots, want %d", tc.opts, got, tc.want)
			}
		}
	}
}
