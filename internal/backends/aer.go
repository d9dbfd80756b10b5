package backends

import (
	"fmt"
	"runtime"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/cost"
	"qfw/internal/mps"
	"qfw/internal/stabilizer"
)

// aer is the Qiskit-Aer analog: a strong single-node simulator with several
// sub-backends. Its matrix_product_state engine is the star of the paper's
// TFIM results; statevector uses chunked multi-core kernels (Aer's
// "chunking" MPI mode does not scale beyond one node, which the paper calls
// out for QAOA — reproduced here by capping workers at one node's cores).
type aer struct {
	env   *core.Env
	cache *core.ParseCache
}

func newAer(env *core.Env) (core.Executor, error) {
	return &aer{env: env, cache: core.NewParseCache()}, nil
}

func (b *aer) Name() string { return "aer" }

func (b *aer) Capabilities() core.Capabilities {
	return core.Capabilities{
		Backend:             "aer",
		Subbackends:         []string{"statevector", "matrix_product_state", "stabilizer", "automatic"},
		CPU:                 true,
		GPU:                 true,
		NativeMPI:           true,
		Gradients:           true,
		GradientSubs:        []string{"statevector", "automatic"},
		DeterministicSeeded: true,
		Notes:               "Strong single-node performance; MPI uses chunking and is capped at one node. GPU (CUDA) path simulated by chunked CPU kernels; HIP/ROCm requires a custom build. Adjoint gradients on the statevector engine; matrix_product_state runs the compiled fusion-aware MPS schedule (MaxBond/Cutoff via RunOptions).",
	}
}

func (b *aer) Execute(spec core.CircuitSpec, opts core.RunOptions) (core.ExecResult, error) {
	c, err := parsed(b.cache, spec, opts)
	if err != nil {
		return core.ExecResult{}, err
	}
	sub, err := b.resolveSub(c, opts)
	if err != nil {
		return core.ExecResult{}, err
	}
	if sub == "matrix_product_state" {
		res, err := runMPSSingle(b.cache, spec, opts, mps.DefaultMaxBond, b.chunkWorkers(opts))
		if err != nil {
			return core.ExecResult{}, fmt.Errorf("aer/mps: %w", err)
		}
		return res, nil
	}
	if !c.IsBound() {
		return core.ExecResult{}, fmt.Errorf("backend: parametric spec %q requires batch execution (unbound params %v)", spec.Name, c.ParamNames())
	}
	return b.executeParsed(c, nil, nil, sub, opts)
}

// ExecuteBatch implements core.BatchExecutor: rebind each element into the
// cached parse of the ansatz — with its fusion plan (or compiled MPS
// schedule) built once per batch — and run it on the selected sub-backend.
func (b *aer) ExecuteBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	// Get (not GetFused): an MPS batch builds its own plan on the
	// transpiled circuit, so the dense fusion plan would be wasted work;
	// the non-MPS path builds it lazily inside runBatch.
	base, err := parsed(b.cache, spec, opts)
	if err != nil {
		return nil, err
	}
	sub, err := b.resolveSub(base, opts)
	if err != nil {
		return nil, err
	}
	if sub == "matrix_product_state" {
		res, err := runMPSBatch(b.cache, spec, bindings, opts, mps.DefaultMaxBond)
		if err != nil {
			return nil, fmt.Errorf("aer/mps: %w", err)
		}
		return res, nil
	}
	return runBatch(b.cache, spec, bindings, opts,
		func(c *circuitT, plan *circuit.FusionPlan, sched *circuit.DistSchedule, opts core.RunOptions) (core.ExecResult, error) {
			return b.executeParsed(c, plan, sched, sub, opts)
		})
}

// resolveSub normalizes the requested sub-backend, resolving "automatic"
// against the circuit structure.
func (b *aer) resolveSub(c *circuitT, opts core.RunOptions) (string, error) {
	sub := normalizeSub(opts.Subbackend, "automatic")
	switch sub {
	case "automatic":
		return b.selectAutomatic(c), nil
	case "statevector", "stabilizer":
		return sub, nil
	case "matrix_product_state", "mps":
		return "matrix_product_state", nil
	}
	return "", fmt.Errorf("aer: unknown sub-backend %q", opts.Subbackend)
}

// ExecuteGradient implements core.GradientExecutor on the dense statevector
// engine (the only aer sub-backend with direct amplitude access; MPS and
// stabilizer requests are rejected rather than silently rerouted).
func (b *aer) ExecuteGradient(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.GradResult, error) {
	switch sub := normalizeSub(opts.Subbackend, "automatic"); sub {
	case "automatic", "statevector":
	default:
		return nil, fmt.Errorf("aer: adjoint gradients need the statevector sub-backend, got %q", sub)
	}
	c, err := parsed(b.cache, spec, opts)
	if err != nil {
		return nil, err
	}
	if err := checkGradientBudget(c.NQubits, b.env.MemBudgetBytes); err != nil {
		return nil, err
	}
	return runGradient(b.cache, spec, bindings, opts, b.chunkWorkers(opts))
}

// executeParsed runs the non-MPS sub-backends (the MPS path dispatches at
// the spec level so its compiled schedule can live in the cache).
func (b *aer) executeParsed(c *circuitT, plan *circuit.FusionPlan, sched *circuit.DistSchedule, sub string, opts core.RunOptions) (core.ExecResult, error) {
	switch sub {
	case "statevector":
		if err := checkStateVectorBudget(c.NQubits, b.env.MemBudgetBytes); err != nil {
			return core.ExecResult{}, err
		}
		workers := b.chunkWorkers(opts)
		counts, ev := simulateSV(c, plan, sched, opts.Shots, workers, newRNG(opts), opts.Observable)
		return core.ExecResult{Counts: counts, ExpVal: ev}, nil
	case "stabilizer":
		counts, err := stabilizer.Simulate(c, opts.Shots, newRNG(opts))
		if err != nil {
			return core.ExecResult{}, fmt.Errorf("aer/stabilizer: %w", err)
		}
		var ev *float64
		if obs := opts.Observable; obs != nil {
			if !obs.IsDiagonal() {
				return core.ExecResult{}, fmt.Errorf("aer/stabilizer: only diagonal observables are supported")
			}
			coeffs, zs := zTerms(obs)
			v, err := stabilizer.ExpectationZ(c, coeffs, zs)
			if err != nil {
				return core.ExecResult{}, fmt.Errorf("aer/stabilizer: %w", err)
			}
			ev = &v
		}
		return core.ExecResult{Counts: counts, ExpVal: ev}, nil
	}
	return core.ExecResult{}, fmt.Errorf("aer: unreachable sub-backend %q", sub)
}

// zTerms flattens a diagonal observable into Z-strings over qubits, in the
// order its energy sums in: Fields, Couplings, then Paulis.
func zTerms(o *core.Observable) (coeffs []float64, zs [][]int) {
	for i, f := range o.Fields {
		if f != 0 {
			coeffs, zs = append(coeffs, f), append(zs, []int{i})
		}
	}
	for _, c := range o.Couplings {
		if c.V != 0 {
			coeffs, zs = append(coeffs, c.V), append(zs, []int{c.I, c.J})
		}
	}
	for _, t := range o.Paulis {
		var qs []int
		for q := 0; q < len(t.Ops); q++ {
			if t.Ops[q] == 'Z' {
				qs = append(qs, q)
			}
		}
		coeffs, zs = append(coeffs, t.Coeff), append(zs, qs)
	}
	return coeffs, zs
}

// selectAutomatic reproduces Aer's "automatic" method selection with the
// structural signals available to the IR: Clifford circuits go to the
// stabilizer engine; low-entanglement circuits go to MPS — strictly
// nearest-neighbour structure, or any circuit whose cost-model entanglement
// bound (cost.Extract) proves the default bond cap is lossless, so a sparse
// long-range circuit no longer falls through to the dense engine; everything
// else gets the dense state vector when it fits, MPS otherwise.
func (b *aer) selectAutomatic(c *circuitT) string {
	if c.IsClifford() {
		return "stabilizer"
	}
	svFits := checkStateVectorBudget(c.NQubits, b.env.MemBudgetBytes) == nil
	if c.NQubits >= 12 {
		if c.InteractionDistance() <= 1 {
			return "matrix_product_state"
		}
		if f := cost.Extract(c, nil); f.EstPeakBond() <= mps.DefaultMaxBond {
			return "matrix_product_state"
		}
	}
	if svFits {
		return "statevector"
	}
	return "matrix_product_state"
}

// chunkWorkers caps the chunked kernel parallelism at a single node's
// usable cores (Aer does not strong-scale past one node).
func (b *aer) chunkWorkers(opts core.RunOptions) int {
	w := opts.ProcsPerNode
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if len(b.env.Nodes) > 0 {
		if cap := b.env.Nodes[0].UsableCores(); w > cap {
			w = cap
		}
	}
	return w
}
