package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/defw"
)

// paramExec is a batch-capable fake executor: it parses specs through its
// own cache (like the real backends) and echoes each element's binding
// value so ordering is observable.
type paramExec struct {
	name  string
	cache *ParseCache

	mu         sync.Mutex
	execCalls  int
	batchCalls int
}

func newParamExec(name string) *paramExec {
	return &paramExec{name: name, cache: NewParseCache()}
}

func (p *paramExec) Name() string { return p.name }
func (p *paramExec) Capabilities() Capabilities {
	return Capabilities{Backend: p.name, Subbackends: []string{"default"}}
}

func (p *paramExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	p.mu.Lock()
	p.execCalls++
	p.mu.Unlock()
	c, err := p.cache.Get(spec)
	if err != nil {
		return ExecResult{}, err
	}
	theta := c.Gates[0].Params[0].Const
	return ExecResult{Extra: map[string]float64{"theta": theta, "seed": float64(opts.Seed)}}, nil
}

func (p *paramExec) ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	p.mu.Lock()
	p.batchCalls++
	p.mu.Unlock()
	base, err := p.cache.Get(spec)
	if err != nil {
		return nil, err
	}
	out := make([]ExecResult, len(bindings))
	for i, b := range bindings {
		bound := base.Bind(b)
		if !bound.IsBound() {
			return nil, fmt.Errorf("paramExec: element %d leaves params %v unbound", i, bound.ParamNames())
		}
		out[i] = ExecResult{Extra: map[string]float64{
			"theta": bound.Gates[0].Params[0].Const,
			"seed":  float64(opts.ForElement(i).Seed),
		}}
	}
	return out, nil
}

// parametricAnsatz builds a tiny symbolic circuit.
func parametricAnsatz(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := circuit.New(1)
	c.Name = "ansatz"
	c.RX(0, circuit.Sym("theta", 1)).MeasureAll()
	return c
}

// countingHandler wraps a defw handler and tallies method calls.
type countingHandler struct {
	inner defw.Handler
	mu    sync.Mutex
	calls map[string]int
}

func (h *countingHandler) Handle(method string, payload []byte) ([]byte, error) {
	h.mu.Lock()
	h.calls[method]++
	h.mu.Unlock()
	return h.inner.Handle(method, payload)
}

func (h *countingHandler) count(method string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls[method]
}

func (h *countingHandler) total() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, c := range h.calls {
		n += c
	}
	return n
}

func TestBatchSingleRPCSingleParse(t *testing.T) {
	// The batch acceptance criterion: K bindings over one ansatz cost
	// exactly one RPC — the blocking exec_batch — and parse the QASM exactly
	// once.
	exec := newParamExec("px")
	qpm := NewQPM(exec, 4, nil)
	defer qpm.Close()
	server := defw.NewServer()
	counter := &countingHandler{inner: qpm, calls: map[string]int{}}
	server.Register(ServiceName("px"), counter)
	client := defw.NewPipeClient(server)
	defer func() { client.Close(); server.Close() }()
	front, err := NewFrontend(client, Properties{Backend: "px"})
	if err != nil {
		t.Fatal(err)
	}

	const K = 8
	bindings := make([]Bindings, K)
	for i := range bindings {
		bindings[i] = Bindings{"theta": float64(i) / 10}
	}
	results, err := front.RunBatch(parametricAnsatz(t), bindings, RunOptions{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != K {
		t.Fatalf("got %d results, want %d", len(results), K)
	}
	for i, res := range results {
		if res == nil || res.Extra["theta"] != float64(i)/10 {
			t.Fatalf("element %d out of order: %+v", i, res)
		}
		if res.Extra["seed"] != float64(100+i) {
			t.Fatalf("element %d seed %v, want %d", i, res.Extra["seed"], 100+i)
		}
	}
	if got := counter.count("exec_batch"); got != 1 {
		t.Fatalf("exec_batch RPCs = %d, want 1", got)
	}
	if got := counter.total(); got != 1 {
		t.Fatalf("RunBatch issued %d RPCs, want 1", got)
	}
	if got := exec.cache.Parses(); got != 1 {
		t.Fatalf("QASM parses = %d, want 1", got)
	}
}

func TestBatchFallbackForPlainExecutor(t *testing.T) {
	// Executors without native batch support are driven per element through
	// the QPM's own cache: still one QPM-side parse for the whole batch.
	exec := &fakeExec{name: "plain"}
	qpm := NewQPM(exec, 2, nil)
	defer qpm.Close()
	spec, err := SpecFromParametric(func() *circuit.Circuit {
		c := circuit.New(1)
		c.Name = "fb"
		c.RX(0, circuit.Sym("a", 1)).MeasureAll()
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.IsParametric() || spec.Params[0] != "a" {
		t.Fatalf("spec not parametric: %+v", spec)
	}
	id, err := qpm.SubmitBatch(spec, []Bindings{{"a": 0.1}, {"a": 0.2}, {"a": 0.3}}, RunOptions{Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	results, errs, err := qpm.WaitBatch(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != "" {
			t.Fatalf("element %d failed: %s", i, e)
		}
		if results[i] == nil || results[i].Counts["00"] != 5 {
			t.Fatalf("element %d result %+v", i, results[i])
		}
	}
	if exec.callCount() != 3 {
		t.Fatalf("Execute calls = %d, want 3", exec.callCount())
	}
	if qpm.ParseCount() != 1 {
		t.Fatalf("QPM parses = %d, want 1", qpm.ParseCount())
	}
}

func TestBatchElementErrorIsOrdered(t *testing.T) {
	// A binding that leaves a parameter unbound fails its elements with a
	// clean per-element error; the frontend surfaces the first one.
	exec := newParamExec("pe")
	qpm := NewQPM(exec, 1, nil)
	defer qpm.Close()
	server := defw.NewServer()
	server.Register(ServiceName("pe"), qpm)
	client := defw.NewPipeClient(server)
	defer func() { client.Close(); server.Close() }()
	front, _ := NewFrontend(client, Properties{Backend: "pe"})

	_, err := front.RunBatch(parametricAnsatz(t), []Bindings{{"wrong": 1}}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "element 0") {
		t.Fatalf("err = %v, want element error", err)
	}
}

// blockingExec parks every execution until released.
type blockingExec struct {
	name    string
	started chan struct{}
	release chan struct{}
}

func (b *blockingExec) Name() string { return b.name }
func (b *blockingExec) Capabilities() Capabilities {
	return Capabilities{Backend: b.name}
}
func (b *blockingExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	b.started <- struct{}{}
	<-b.release
	return ExecResult{Counts: map[string]int{"0": 1}}, nil
}

func TestQPMSubmitAfterClose(t *testing.T) {
	q := NewQPM(&fakeExec{name: "closed"}, 1, nil)
	q.Close()
	if _, err := q.Submit(bell(t), RunOptions{}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Submit after Close = %v, want closed error", err)
	}
	if _, err := q.SubmitBatch(bell(t), []Bindings{{}}, RunOptions{}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("SubmitBatch after Close = %v, want closed error", err)
	}
	// Close must stay idempotent.
	q.Close()
}

func TestBatchRPCWireFormat(t *testing.T) {
	// The exec_batch payload must stay JSON-stable: spec once, bindings
	// as an array of name->value maps.
	req := submitReq{
		Spec:     CircuitSpec{Name: "a", NQubits: 1, QASM: "OPENQASM 2.0;", Params: []string{"t"}},
		Bindings: []Bindings{{"t": 0.5}},
		Opts:     RunOptions{Shots: 4},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back submitReq
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec.Params[0] != "t" || back.Bindings[0]["t"] != 0.5 || back.Opts.Shots != 4 {
		t.Fatalf("round trip %+v", back)
	}
}

// TestBatchReplyOfWrongLengthIsAnError: a reply that does not hold one
// result per binding, or whose error list is neither empty nor one per
// binding, is an error rather than a shorter, silent result slice.
func TestBatchReplyOfWrongLengthIsAnError(t *testing.T) {
	one := &Result{Counts: map[string]int{"0": 1}}
	for name, rep := range map[string]batchReply{
		"short results": {Results: []*Result{one}},
		"short errs":    {Results: []*Result{one, one}, Errs: []string{""}},
	} {
		server := defw.NewServer()
		server.Register(ServiceName("short"), defw.HandlerFunc(func(string, []byte) ([]byte, error) {
			return json.Marshal(rep)
		}))
		client := defw.NewPipeClient(server)
		t.Cleanup(func() { client.Close(); server.Close() })
		front, err := NewFrontend(client, Properties{Backend: "short"})
		if err != nil {
			t.Fatal(err)
		}
		results, err := front.RunBatch(parametricAnsatz(t), []Bindings{{"theta": 0.1}, {"theta": 0.2}}, RunOptions{Shots: 1})
		if err == nil {
			t.Fatalf("%s: a reply of %d results and %d errors for 2 bindings was accepted as %d results", name, len(rep.Results), len(rep.Errs), len(results))
		}
	}
}
