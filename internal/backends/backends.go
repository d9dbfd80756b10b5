// Package backends implements the five backend QPM integrations of the
// paper's Table 1 against the core.Executor contract:
//
//   - nwqsim:  distributed state-vector engine with native MPI (SV-Sim),
//   - aer:     Qiskit-Aer analog with statevector / matrix_product_state /
//     stabilizer / automatic sub-backends,
//   - tnqvm:   TN-QVM wrapper selecting tensor topologies (ExaTN-MPS
//     working, TTN pending, PEPS planned),
//   - qtensor: tree tensor-network contraction (numpy sub-backend, MPI via
//     output-variable slicing; cupy/pytorch planned),
//   - ionq:    cloud QPU provider over REST (simulator sub-backend working,
//     hardware planned).
//
// The four local backends are records, not code: each holds its Table-1
// capability row, its default sub-backend, and a table from sub-backend
// name to an engine (with its kernel-width rule and MPS bond cap) or to
// the error of a name that does not run yet. One executor, local, serves
// all four: it parses every request through the session's spec store
// (core.Env.Specs, one ParseCache keyed by spec content that the QPMs and
// the router share, so a spec parses and plans once per session) and hands
// it to the engine of the requested row. Each engine is written once: the
// dense state vector (fused or staged), the distributed state vector, the
// compiled MPS, the stabilizer, and the tensor network, whole or sliced
// across ranks.
//
// Each backend registers itself with the core registry from init, so
// importing this package makes every backend available to core.Launch.
package backends

import (
	"fmt"
	"math/rand"
	"strings"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/pauli"
)

// register all backends with the orchestration core.
func init() {
	for _, r := range []*record{nwqsim, aer, tnqvm, qtensor} {
		core.RegisterBackend(r.caps.Backend, r.open)
	}
	core.RegisterBackend("ionq", newIonQ)
}

// parsed fetches a spec's parse through the spec store and checks the
// request's observable against its width, so an observable that does not
// fit the circuit is refused with one error text before any engine sees it.
func parsed(specs *core.ParseCache, spec core.CircuitSpec, opts core.RunOptions) (*circuit.Circuit, error) {
	c, err := specs.Get(spec)
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	if err := opts.Observable.Validate(c.NQubits); err != nil {
		return nil, err
	}
	return c, nil
}

// normalizeSub lowercases and trims a sub-backend name, defaulting it.
func normalizeSub(s, def string) string {
	if s = strings.ToLower(strings.TrimSpace(s)); s == "" {
		return def
	}
	return s
}

// seedOf derives the RNG seed for an execution.
func seedOf(opts core.RunOptions) int64 {
	if opts.Seed != 0 {
		return opts.Seed
	}
	return 12345
}

// newRNG builds the execution RNG.
func newRNG(opts core.RunOptions) *rand.Rand {
	return rand.New(rand.NewSource(seedOf(opts)))
}

// checkStateVectorBudget enforces the per-node memory budget for dense
// state-vector allocations: 16 bytes per amplitude (complex128).
func checkStateVectorBudget(n int, budget int64) error {
	if n >= 62 {
		return core.Infeasible("state vector of %d qubits", n)
	}
	need := int64(16) << uint(n)
	if need > budget {
		return core.Infeasible("state vector of %d qubits needs %d MiB, budget %d MiB",
			n, need>>20, budget>>20)
	}
	return nil
}

// obsHamiltonian converts a wire-format observable (diagonal fields and
// couplings plus general Pauli terms) into a Pauli Hamiltonian on n qubits.
func obsHamiltonian(o *core.Observable, n int) *pauli.Hamiltonian {
	fields := make([]float64, n)
	copy(fields, o.Fields)
	js := map[[2]int]float64{}
	for _, c := range o.Couplings {
		js[[2]int{c.I, c.J}] += c.V
	}
	h := pauli.IsingCost(fields, js)
	for _, t := range o.Paulis {
		terms := map[int]pauli.Op{}
		for q := 0; q < len(t.Ops) && q < n; q++ {
			switch t.Ops[q] {
			case 'X':
				terms[q] = pauli.X
			case 'Y':
				terms[q] = pauli.Y
			case 'Z':
				terms[q] = pauli.Z
			}
		}
		h.Add(t.Coeff, terms)
	}
	return h
}
