package backends

import (
	"cmp"
	"fmt"
	"time"

	"qfw/internal/core"
	"qfw/internal/ionq"
)

// ionqBackend is the remote QPU path: circuits go out as REST calls to a
// cloud service (the simulated IonQ endpoint), results come back by
// polling. Only the "simulator" sub-backend is exercised, as in the paper;
// "hardware" is planned.
type ionqBackend struct {
	env     *core.Env
	service *ionq.Service
	client  *ionq.Client
}

func newIonQ(env *core.Env) (core.Executor, error) {
	lat := env.CloudLatency
	if lat <= 0 {
		lat = 40 * time.Millisecond
	}
	jitter := env.CloudJitter
	if jitter <= 0 {
		jitter = 20 * time.Millisecond
	}
	conc := env.CloudConcurrency
	if conc <= 0 {
		conc = 1
	}
	svc, err := ionq.Start(ionq.Config{
		Latency:     lat,
		Jitter:      jitter,
		QueueDelay:  lat / 2,
		Concurrency: conc,
		Seed:        env.Seed + 7,
	})
	if err != nil {
		return nil, fmt.Errorf("ionq: cloud service failed to start: %w", err)
	}
	return &ionqBackend{env: env, service: svc, client: ionq.NewClient(svc.URL())}, nil
}

func (b *ionqBackend) Name() string { return "ionq" }

func (b *ionqBackend) Capabilities() core.Capabilities {
	return core.Capabilities{
		Backend:     "ionq",
		Subbackends: []string{"simulator", "hardware"},
		Notes:       "Cloud provider integrated via REST (QiskitBackendV2-style plugin in the original). Tested extensively with the simulator sub-backend.",
	}
}

// Close shuts the embedded cloud service down at session teardown.
func (b *ionqBackend) Close() error {
	b.service.Close()
	return nil
}

// URL exposes the cloud endpoint (tests and examples hit it directly).
func (b *ionqBackend) URL() string { return b.service.URL() }

// checkOpts rejects unusable options before any cloud interaction: an
// unsupported sub-backend, or a non-diagonal observable (undecidable from
// counts) that would otherwise waste every execution in the request.
func (b *ionqBackend) checkOpts(opts core.RunOptions) error {
	switch normalizeSub(opts.Subbackend, "simulator") {
	case "simulator":
	case "hardware":
		return fmt.Errorf("ionq: hardware %w", core.ErrPlanned)
	default:
		return fmt.Errorf("ionq: unknown sub-backend %q", opts.Subbackend)
	}
	if opts.Observable != nil && !opts.Observable.IsDiagonal() {
		return fmt.Errorf("ionq: only diagonal observables are estimable from cloud counts")
	}
	return nil
}

// estimateShots is what an analytic request (shots 0 + observable) spends
// on the cloud path: a QPU can only sample, so ⟨H⟩ is estimated from this
// many shots and the histogram comes back with it.
const estimateShots = 1024

// countsResult converts a cloud counts histogram into the unified result:
// expectation values can only be shot estimates, exactly like real hardware.
func countsResult(counts map[string]int, obs *core.Observable) (core.ExecResult, error) {
	var ev *float64
	if obs != nil {
		if !obs.IsDiagonal() {
			return core.ExecResult{}, fmt.Errorf("ionq: only diagonal observables are estimable from cloud counts")
		}
		v := obs.FromCounts(counts)
		ev = &v
	}
	return core.ExecResult{Counts: counts, ExpVal: ev}, nil
}

// ExecuteBatch implements core.BatchExecutor on the cloud path: the ansatz
// parses once into the spec store, every element rebinds and serializes,
// and the whole batch maps onto one REST job array — one round trip to
// submit and one long-poll round trip to collect, instead of a submit+poll
// loop per evaluation.
func (b *ionqBackend) ExecuteBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	if err := b.checkOpts(opts); err != nil {
		return nil, err
	}
	base, err := parsed(b.env.Specs(), spec, opts)
	if err != nil {
		return nil, err
	}
	qasms := make([]string, len(bindings))
	for i, bind := range bindings {
		bound := base.Bind(bind)
		if !bound.IsBound() {
			return nil, fmt.Errorf("ionq: binding leaves params %v unbound (batch element %d)", bound.ParamNames(), i)
		}
		if qasms[i], err = bound.ToQASM(); err != nil {
			return nil, fmt.Errorf("ionq: batch element %d: %w", i, err)
		}
	}
	ids, err := b.client.SubmitBatch(spec.Name, qasms, cmp.Or(opts.Shots, estimateShots))
	if err != nil {
		return nil, fmt.Errorf("ionq: submit batch: %w", err)
	}
	allCounts, err := b.client.WaitBatch(ids)
	if err != nil {
		return nil, fmt.Errorf("ionq: %w", err)
	}
	out := make([]core.ExecResult, len(bindings))
	for i, counts := range allCounts {
		if out[i], err = countsResult(counts, opts.Observable); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *ionqBackend) Execute(spec core.CircuitSpec, opts core.RunOptions) (core.ExecResult, error) {
	if err := b.checkOpts(opts); err != nil {
		return core.ExecResult{}, err
	}
	// The QASM goes to the cloud as sent; only an observable needs the
	// local parse, for the width it must fit.
	if opts.Observable != nil {
		if _, err := parsed(b.env.Specs(), spec, opts); err != nil {
			return core.ExecResult{}, err
		}
	}
	id, err := b.client.Submit(spec.Name, spec.QASM, cmp.Or(opts.Shots, estimateShots))
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("ionq: submit: %w", err)
	}
	counts, err := b.client.Wait(id, 15*time.Millisecond)
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("ionq: %w", err)
	}
	return countsResult(counts, opts.Observable)
}
