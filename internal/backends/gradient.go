package backends

import (
	"fmt"
	"slices"

	"qfw/internal/core"
	"qfw/internal/statevec"
)

// gradLocal is a local executor whose backend differentiates.
type gradLocal struct{ *local }

// ExecuteGradient implements core.GradientExecutor: the spec is parsed —
// and its gradient-aware fusion plan built — once per ansatz through the
// backend's cache, then every binding runs one adjoint sweep (forward +
// reverse, three arena-backed states) node-local on the chunked kernels.
// Bindings fan out across a core-bounded worker pool; the kernel
// parallelism divides the cores among the in-flight sweeps so a gradient
// batch never oversubscribes the node. Sub-backends outside the capability
// row's GradientSubs (when it lists any) are refused rather than silently
// rerouted.
func (g gradLocal) ExecuteGradient(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.GradResult, error) {
	name := normalizeSub(opts.Subbackend, g.rec.def)
	if subs := g.rec.caps.GradientSubs; len(subs) > 0 && !slices.Contains(subs, name) {
		return nil, fmt.Errorf("%s: adjoint gradients need the statevector sub-backend, got %q", g.Name(), name)
	}
	c, err := parsed(g.cache, spec, opts)
	if err != nil {
		return nil, err
	}
	if err := checkGradientBudget(c.NQubits, g.env.MemBudgetBytes); err != nil {
		return nil, err
	}
	if opts.Observable == nil {
		return nil, fmt.Errorf("backend: gradient execution requires an observable")
	}
	_, gplan, err := g.cache.GetGrad(spec)
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	maps := make([]map[string]float64, len(bindings))
	for i, b := range bindings {
		maps[i] = b
	}
	evals, err := statevec.GradientAdjointBatch(gplan, maps, gradObsFor(opts.Observable, c.NQubits), g.workers(g.rec.gradWidth, opts))
	if err != nil {
		return nil, err
	}
	out := make([]core.GradResult, len(evals))
	for i, e := range evals {
		out[i] = core.GradResult{Value: e.Value, Grad: e.Grad}
	}
	return out, nil
}

// checkGradientBudget enforces the memory budget for one adjoint sweep:
// unlike plain execution, three full-width states (|ψ⟩, |λ⟩, |μ⟩) are live
// simultaneously, so the per-execution footprint is 3·16 bytes/amplitude.
func checkGradientBudget(n int, budget int64) error {
	// 48 = 3·16 bytes/amplitude; 48<<58 already overflows int64, so the
	// width guard must reject n >= 58 before the shift.
	if n >= 58 {
		return core.Infeasible("adjoint gradient of %d qubits", n)
	}
	need := int64(48) << uint(n)
	if need > budget {
		return core.Infeasible("adjoint gradient of %d qubits needs %d MiB (three states), budget %d MiB",
			n, need>>20, budget>>20)
	}
	return nil
}

// gradObsFor maps the wire-format observable onto the adjoint engine's
// evaluation paths: diagonal operators use the basis-index fast path,
// anything with X/Y terms becomes a Pauli Hamiltonian.
func gradObsFor(o *core.Observable, n int) statevec.GradObs {
	if o.IsDiagonal() {
		return statevec.GradObs{Diag: o.EnergyOfIndex}
	}
	return statevec.GradObs{Ham: obsHamiltonian(o, n)}
}
