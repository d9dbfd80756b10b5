package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/defw"
	"qfw/internal/faults"
	"qfw/internal/trace"
)

// frontendOver registers q on a fresh DEFw server and returns a Frontend on
// it: over a real TCP listener when tcp is set, else over an in-process pipe.
func frontendOver(t *testing.T, q *QPM, tcp bool) *Frontend {
	t.Helper()
	server := defw.NewServer()
	server.Register(ServiceName(q.Backend()), q)
	var client *defw.Client
	if tcp {
		addr, err := server.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if client, err = defw.Dial(addr); err != nil {
			t.Fatal(err)
		}
	} else {
		client = defw.NewPipeClient(server)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	front, err := NewFrontend(client, Properties{Backend: q.Backend()})
	if err != nil {
		t.Fatal(err)
	}
	return front
}

func bellCircuit() *circuit.Circuit {
	c := circuit.New(2)
	c.H(0).CX(0, 1).MeasureAll()
	return c
}

func requireEmptyTaskTable(t *testing.T, front *Frontend, after string) {
	t.Helper()
	list, err := front.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("task table after %s: %v, want empty (exec reaps on every outcome)", after, list)
	}
}

// TestExecReapsOnFailureAndDeadline: the blocking exec RPCs delete their
// task whatever happened to it — a failed execution, failed batch elements,
// a failed gradient and a TimeoutMS-expired run all leave List() empty.
func TestExecReapsOnFailureAndDeadline(t *testing.T) {
	bellCirc := bellCircuit()

	t.Run("failed run", func(t *testing.T) {
		q := NewQPM(&fakeExec{name: "bad", fail: true}, 1, nil)
		defer q.Close()
		front := frontendOver(t, q, false)
		if _, err := front.Run(bellCirc, RunOptions{Shots: 1}); err == nil || !strings.Contains(err.Error(), "fake failure") {
			t.Fatalf("err = %v, want the executor's failure", err)
		}
		requireEmptyTaskTable(t, front, "a failed Run")
	})

	t.Run("failed batch elements and gradient", func(t *testing.T) {
		inj := faults.NewInjector(faults.Schedule{Rate: 1, Times: -1})
		q := NewQPM(NewFaultyExecutor(newGradExec("px"), inj), 2, nil)
		defer q.Close()
		q.SetRetryPolicy(faults.Policy{MaxAttempts: 1})
		front := frontendOver(t, q, false)
		results, err := front.RunBatch(parametricAnsatz(t), batchOf(3), RunOptions{Seed: 5})
		if err == nil || !strings.Contains(err.Error(), "batch element 0") {
			t.Fatalf("err = %v, want the first element's failure", err)
		}
		if len(results) != 3 {
			t.Fatalf("partial results have %d slots, want 3", len(results))
		}
		requireEmptyTaskTable(t, front, "a failed RunBatch")
		obs := &Observable{Fields: []float64{1}}
		if _, err := front.RunGradient(parametricAnsatz(t), batchOf(2), RunOptions{Observable: obs}); err == nil {
			t.Fatal("gradient under a persistent fault succeeded")
		}
		requireEmptyTaskTable(t, front, "a failed RunGradient")
	})

	t.Run("deadline expired", func(t *testing.T) {
		inj := faults.NewInjector(faults.Schedule{Rate: 1, Times: -1, Mode: "hang"})
		defer inj.Close()
		q := NewQPM(NewFaultyExecutor(&fakeExec{name: "hangy"}, inj), 1, trace.NewRecorder())
		defer q.Close()
		front := frontendOver(t, q, false)
		_, err := front.Run(bellCirc, RunOptions{Shots: 1, TimeoutMS: 40})
		if !IsDeadlineExceeded(err) {
			t.Fatalf("err = %v, want typed ErrDeadlineExceeded through the single round trip", err)
		}
		requireEmptyTaskTable(t, front, "a deadline-expired Run")
	})
}

// TestExecCarriesRetryAttempts: the retry envelope runs inside the one
// round trip, and its account of it (Attempts, backoff) reaches the client.
func TestExecCarriesRetryAttempts(t *testing.T) {
	q := NewQPM(&flakyExec{name: "flaky", failFirst: 1}, 1, nil)
	defer q.Close()
	q.SetRetryPolicy(faults.Policy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, Sleep: func(time.Duration) {}})
	front := frontendOver(t, q, false)
	res, err := front.Run(bellCircuit(), RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tm := res.Timings; tm.Attempts != 2 || tm.TotalMS != tm.Sum() {
		t.Fatalf("timings %+v, want Attempts 2 and TotalMS == Sum()", tm)
	}
	requireEmptyTaskTable(t, front, "a retried Run")
}

// barrierExec blocks every execution until n of them are inside it at once.
type barrierExec struct {
	n       int32
	arrived atomic.Int32
	release chan struct{}
}

func (b *barrierExec) Name() string { return "barrier" }
func (b *barrierExec) Capabilities() Capabilities {
	return Capabilities{Backend: "barrier", CPU: true}
}
func (b *barrierExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	if b.arrived.Add(1) == b.n {
		close(b.release)
	}
	select {
	case <-b.release:
		return ExecResult{Counts: map[string]int{"00": opts.Shots}}, nil
	case <-time.After(10 * time.Second):
		return ExecResult{}, fmt.Errorf("only %d of %d executions overlapped", b.arrived.Load(), b.n)
	}
}

// TestConcurrentRunsShareOneConnection: a blocking exec holds its handler
// goroutine for the whole execution, so handlers must be per request — 32
// synchronous Runs on one TCP connection all have to be executing at once
// before any of them may return.
func TestConcurrentRunsShareOneConnection(t *testing.T) {
	const n = 32
	exec := &barrierExec{n: n, release: make(chan struct{})}
	q := NewQPM(exec, n, nil)
	defer q.Close()
	front := frontendOver(t, q, true)
	c := bellCircuit()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := front.Run(c, RunOptions{Shots: i + 1})
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			if res.Counts["00"] != i+1 {
				t.Errorf("run %d got another call's reply: %v", i, res.Counts)
			}
		}(i)
	}
	wg.Wait()
	requireEmptyTaskTable(t, front, "32 concurrent Runs")
}
