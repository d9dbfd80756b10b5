package core

import (
	"sync"
	"testing"
	"time"

	"qfw/internal/trace"
)

// gatedExec blocks every execution until open() is called, so tests can
// pin tasks in the Queued/Running states and exercise the lifecycle edges.
type gatedExec struct {
	gate      chan struct{}
	once      sync.Once
	mu        sync.Mutex
	execCalls int
	gradCalls int
}

func newGatedExec() *gatedExec { return &gatedExec{gate: make(chan struct{})} }

func (g *gatedExec) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedExec) Name() string { return "gated" }
func (g *gatedExec) Capabilities() Capabilities {
	return Capabilities{Backend: "gated", CPU: true, Gradients: true}
}

func (g *gatedExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	g.mu.Lock()
	g.execCalls++
	g.mu.Unlock()
	<-g.gate
	return ExecResult{Counts: map[string]int{"00": 1}}, nil
}

func (g *gatedExec) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	g.mu.Lock()
	g.gradCalls++
	g.mu.Unlock()
	<-g.gate
	out := make([]GradResult, len(bindings))
	return out, nil
}

func (g *gatedExec) counts() (int, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.execCalls, g.gradCalls
}

// blockWorker submits a task that pins the QPM's single worker until the
// gate opens, so everything submitted after it stays queued.
func blockWorker(t *testing.T, q *QPM, spec CircuitSpec) string {
	t.Helper()
	id, err := q.Submit(spec, RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, q, id, StatusRunning)
	return id
}

func TestListReportsBatchAndGradientStatuses(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 1, trace.NewRecorder())
	defer q.Close()
	defer g.open()
	spec := bell(t)

	blocker := blockWorker(t, q, spec)
	batchID, err := q.SubmitBatch(spec, []Bindings{nil, nil}, RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	gradID, err := q.SubmitGradient(spec, []Bindings{{"t": 0.2}}, RunOptions{Observable: &Observable{Fields: []float64{1, 0}}})
	if err != nil {
		t.Fatal(err)
	}

	list := q.List()
	if list[blocker] != StatusRunning {
		t.Fatalf("blocker listed as %s, want running", list[blocker])
	}
	if list[batchID] != StatusQueued {
		t.Fatalf("batch listed as %s, want queued", list[batchID])
	}
	if list[gradID] != StatusQueued {
		t.Fatalf("gradient listed as %s, want queued", list[gradID])
	}

	g.open()
	if _, _, err := q.WaitBatch(batchID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.WaitGradient(gradID); err != nil {
		t.Fatal(err)
	}
	list = q.List()
	if list[batchID] != StatusDone || list[gradID] != StatusDone {
		t.Fatalf("after completion batch=%s grad=%s, want done/done", list[batchID], list[gradID])
	}
}

func TestQuiesceClosesAdmissionAndDrainWaits(t *testing.T) {
	g := newGatedExec()
	q := NewQPM(g, 1, trace.NewRecorder())
	defer q.Close()
	defer g.open()
	spec := bell(t)
	blockWorker(t, q, spec)

	if q.Drain(10 * time.Millisecond) {
		t.Fatal("drain reported success with a blocked task in flight")
	}
	if _, err := q.Submit(spec, RunOptions{Shots: 1}); !IsDraining(err) {
		t.Fatalf("post-quiesce submit returned %v, want ErrDraining", err)
	}
	if _, err := q.SubmitBatch(spec, []Bindings{nil}, RunOptions{Shots: 1}); !IsDraining(err) {
		t.Fatalf("post-quiesce batch returned %v, want ErrDraining", err)
	}
	if _, err := q.SubmitGradient(spec, []Bindings{{"t": 0.1}}, RunOptions{Observable: &Observable{Fields: []float64{1, 0}}}); !IsDraining(err) {
		t.Fatalf("post-quiesce gradient returned %v, want ErrDraining", err)
	}
	if _, err := q.Exec(spec, RunOptions{Shots: 1}); !IsDraining(err) {
		t.Fatalf("post-quiesce exec returned %v, want ErrDraining", err)
	}

	g.open()
	if !q.Drain(5 * time.Second) {
		t.Fatal("drain did not complete after the gate opened")
	}
	if q.Pending() != 0 {
		t.Fatalf("pending %d after drain", q.Pending())
	}
}
