package core

import (
	"encoding/json"
	"fmt"
	"sync"

	"qfw/internal/circuit"
	"qfw/internal/defw"
)

// Properties selects a backend and sub-backend, mirroring the paper's
// runtime-property mechanism:
//
//	backend := session.Frontend(core.Properties{Backend: "nwqsim", Subbackend: "MPI"})
type Properties struct {
	Backend    string `json:"backend"`
	Subbackend string `json:"subbackend,omitempty"`
}

// ServiceName returns the DEFw service a backend's QPM registers under.
func ServiceName(backend string) string { return "qpm." + backend }

// Frontend is the application-side handle (the QFwBackend analog): it
// serializes circuits, issues RPCs to the selected QPM, and unmarshals the
// unified results. It is safe for concurrent use. Asynchrony is the
// client's: RunAsync keeps an exec call in flight on the shared DEFw
// connection, and the QPM holds no task on the caller's behalf.
type Frontend struct {
	client *defw.Client
	props  Properties

	capsMu sync.Mutex
	caps   Capabilities
	capsOK bool
}

// NewFrontend builds a frontend over an existing DEFw client connection.
func NewFrontend(client *defw.Client, props Properties) (*Frontend, error) {
	if props.Backend == "" {
		return nil, fmt.Errorf("core: Properties.Backend is required")
	}
	return &Frontend{client: client, props: props}, nil
}

// Properties returns the frontend's backend selection.
func (f *Frontend) Properties() Properties { return f.props }

// issue is the one path every Frontend RPC takes: marshal req and send it
// to the selected backend's QPM service without waiting for the reply.
func (f *Frontend) issue(method string, req any) (*defw.Call, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return f.client.Go(ServiceName(f.props.Backend), method, payload), nil
}

// reply waits for an issued call and unmarshals its reply into resp.
func reply(call *defw.Call, resp any) error {
	out, err := call.Result()
	if err != nil {
		return err
	}
	return json.Unmarshal(out, resp)
}

// call is issue followed by reply: one synchronous round trip.
func (f *Frontend) call(method string, req, resp any) error {
	c, err := f.issue(method, req)
	if err != nil {
		return err
	}
	return reply(c, resp)
}

func (f *Frontend) withSubbackend(opts RunOptions) RunOptions {
	if opts.Subbackend == "" {
		opts.Subbackend = f.props.Subbackend
	}
	return opts
}

func (f *Frontend) singleReq(c *circuit.Circuit, opts RunOptions) (submitReq, error) {
	spec, err := SpecFromCircuit(c)
	return submitReq{Spec: spec, Opts: f.withSubbackend(opts)}, err
}

func (f *Frontend) batchReq(c *circuit.Circuit, bindings []Bindings, opts RunOptions) (submitReq, error) {
	if len(bindings) == 0 {
		return submitReq{}, fmt.Errorf("core: empty batch")
	}
	spec, err := SpecFromParametric(c)
	return submitReq{Spec: spec, Bindings: bindings, Opts: f.withSubbackend(opts)}, err
}

// Run executes a circuit synchronously in one "exec" round trip and returns
// the unified result. The QPM reaps the task before replying, so a caller
// leaves nothing behind in the daemon's task table.
func (f *Frontend) Run(c *circuit.Circuit, opts RunOptions) (*Result, error) {
	p, err := f.RunAsync(c, opts)
	if err != nil {
		return nil, err
	}
	return p.Result()
}

// inflight is one issued call whose reply may not have arrived yet.
type inflight struct{ call *defw.Call }

// Status reports StatusRunning until the reply has arrived, then StatusDone;
// it never blocks.
func (p inflight) Status() Status {
	select {
	case <-p.call.Done:
		return StatusDone
	default:
		return StatusRunning
	}
}

// Pending is an in-flight asynchronous execution: one exec call.
type Pending struct{ inflight }

// Result blocks until the reply arrives and returns the unified result.
func (p *Pending) Result() (*Result, error) {
	var res Result
	if err := reply(p.call, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RunAsync issues a circuit's "exec" call and returns immediately with a
// handle — the non-blocking path variational workloads use to keep many
// circuit evaluations in flight per optimizer iteration. DEFw multiplexes
// the calls on one connection by correlation ID.
func (f *Frontend) RunAsync(c *circuit.Circuit, opts RunOptions) (*Pending, error) {
	req, err := f.singleReq(c, opts)
	if err != nil {
		return nil, err
	}
	call, err := f.issue("exec", req)
	if err != nil {
		return nil, err
	}
	return &Pending{inflight{call}}, nil
}

// PendingBatch is an in-flight asynchronous batch execution: one exec_batch
// call over N bindings.
type PendingBatch struct {
	inflight
	N int
}

// RunBatchAsync ships the (possibly parametric) circuit once plus the
// binding list in a single exec_batch call and returns immediately — the
// batched analog of RunAsync. One optimizer iteration's candidate set costs
// one round trip instead of K.
func (f *Frontend) RunBatchAsync(c *circuit.Circuit, bindings []Bindings, opts RunOptions) (*PendingBatch, error) {
	req, err := f.batchReq(c, bindings, opts)
	if err != nil {
		return nil, err
	}
	call, err := f.issue("exec_batch", req)
	if err != nil {
		return nil, err
	}
	return &PendingBatch{inflight{call}, len(bindings)}, nil
}

// Results blocks until the reply arrives and returns the ordered results.
// On element failures it returns the partial results (nil at the failed
// slots) together with the first element error. A reply that does not hold
// one result (and none or one error string) per binding is an error.
func (p *PendingBatch) Results() ([]*Result, error) {
	var resp batchReply
	if err := reply(p.call, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != p.N || len(resp.Errs) != 0 && len(resp.Errs) != p.N {
		return nil, fmt.Errorf("core: batch returned %d results and %d errors for %d bindings", len(resp.Results), len(resp.Errs), p.N)
	}
	for i, e := range resp.Errs {
		if e != "" {
			return resp.Results, fmt.Errorf("core: batch element %d: %s", i, e)
		}
	}
	return resp.Results, nil
}

// RunBatch executes K parameter bindings of one circuit synchronously in a
// single exec_batch round trip and returns the ordered results (partial
// results plus the first element error when elements fail). The QPM reaps
// the batch before replying.
func (f *Frontend) RunBatch(c *circuit.Circuit, bindings []Bindings, opts RunOptions) ([]*Result, error) {
	p, err := f.RunBatchAsync(c, bindings, opts)
	if err != nil {
		return nil, err
	}
	return p.Results()
}

// Capabilities fetches the backend's Table-1 capability row.
func (f *Frontend) Capabilities() (Capabilities, error) {
	var caps Capabilities
	err := f.call("capabilities", nil, &caps)
	return caps, err
}

// SupportsGradients reports whether the selected backend advertises the
// analytic-gradient capability on this frontend's sub-backend selection.
// The capability row is cached on first success — the variational loops
// probe this per solve, not per iteration — while a transient RPC failure
// answers false for this call only and is retried on the next, so one
// dropped capabilities exchange cannot silently pin the frontend to
// derivative-free optimization for its lifetime.
func (f *Frontend) SupportsGradients() bool {
	f.capsMu.Lock()
	defer f.capsMu.Unlock()
	if !f.capsOK {
		caps, err := f.Capabilities()
		if err != nil {
			return false
		}
		f.caps = caps
		f.capsOK = true
	}
	return f.caps.SupportsGradientSub(f.props.Subbackend)
}

// RunGradient evaluates opts.Observable and its analytic gradient for K
// parameter bindings of one symbolic circuit in a single exec_grad round
// trip (the QPM reaps the task before replying). Per-binding gradients come
// back ordered, each over the circuit's sorted parameter names. The backend
// must advertise the gradient capability (see SupportsGradients).
func (f *Frontend) RunGradient(c *circuit.Circuit, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	if opts.Observable == nil {
		return nil, fmt.Errorf("core: gradient execution requires an observable")
	}
	req, err := f.batchReq(c, bindings, opts)
	if err != nil {
		return nil, err
	}
	var resp gradReply
	if err := f.call("exec_grad", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(bindings) {
		return nil, fmt.Errorf("core: gradient batch returned %d results for %d bindings", len(resp.Results), len(bindings))
	}
	return resp.Results, nil
}

// List fetches the QPM's task table.
func (f *Frontend) List() (map[string]Status, error) {
	var m map[string]Status
	err := f.call("list", nil, &m)
	return m, err
}
