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
// Each backend registers itself with the core registry from init, so
// importing this package makes every backend available to core.Launch.
package backends

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/mps"
	"qfw/internal/pauli"
	"qfw/internal/statevec"
)

// register all backends with the orchestration core.
func init() {
	core.RegisterBackend("nwqsim", newNWQSim)
	core.RegisterBackend("aer", newAer)
	core.RegisterBackend("tnqvm", newTNQVM)
	core.RegisterBackend("qtensor", newQTensor)
	core.RegisterBackend("ionq", newIonQ)
}

// circuitT and pauliHam alias frequently used types for brevity.
type (
	circuitT = circuit.Circuit
	pauliHam = pauli.Hamiltonian
)

// parseSpec decodes the standardized circuit description for single-shot
// execution. Parametric specs must go through the batch path, which supplies
// the bindings.
func parseSpec(spec core.CircuitSpec) (*circuit.Circuit, error) {
	c, err := spec.Circuit()
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	if !c.IsBound() {
		return nil, fmt.Errorf("backend: parametric spec %q requires batch execution (unbound params %v)", spec.Name, c.ParamNames())
	}
	return c, nil
}

// parsed fetches a spec's parse through the backend's cache and checks the
// request's observable against its width. Executors enter through it (the
// two uncached single-shot paths call Validate themselves), so an observable
// that does not fit the circuit is refused with one error text before any
// engine sees it.
func parsed(cache *core.ParseCache, spec core.CircuitSpec, opts core.RunOptions) (*circuit.Circuit, error) {
	c, err := cache.Get(spec)
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	if err := opts.Observable.Validate(c.NQubits); err != nil {
		return nil, err
	}
	return c, nil
}

// runBatch is the shared BatchExecutor implementation of the local
// simulator backends: the spec is parsed — and its gate-fusion plan built —
// once through the backend's cache, then every element rebinds into the
// cached circuit and runs, so a batch of K evaluations pays the QASM parse
// and fusion-planning cost once per ansatz, not K times. Above the MinQubits
// threshold the cache-blocked tile schedule is compiled once per
// ansatz too (GetStaged) and handed to every element; a nil schedule means
// the per-op fused path. The QPM hands batch-native executors the whole
// batch, so the elements run here on a core-bounded worker pool (the
// per-batch analog of the QRC fan-out), each with its own deterministic
// slot and derived seed.
func runBatch(cache *core.ParseCache, spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions,
	run func(c *circuitT, plan *circuit.FusionPlan, sched *circuit.DistSchedule, opts core.RunOptions) (core.ExecResult, error)) ([]core.ExecResult, error) {
	base, plan, err := cache.GetFused(spec)
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	var sched *circuit.DistSchedule
	if tun := statevec.CurrentTuning(); base.NQubits >= tun.MinQubits {
		if _, _, s, err := cache.GetStaged(spec, tun.TileBitsFor(base.NQubits)); err == nil {
			sched = s
		}
	}
	out := make([]core.ExecResult, len(bindings))
	errs := make([]error, len(bindings))
	core.FanOut(len(bindings), runtime.GOMAXPROCS(0), func(i int) {
		c := base.Bind(bindings[i])
		if !c.IsBound() {
			errs[i] = fmt.Errorf("backend: binding leaves params %v unbound (batch element %d)", c.ParamNames(), i)
			return
		}
		res, err := run(c, plan, sched, opts.ForElement(i))
		if err != nil {
			errs[i] = fmt.Errorf("batch element %d: %w", i, err)
			return
		}
		out[i] = res
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compiledMPS fetches the routed MPS execution schedule of a spec through
// the backend's ParseCache: parse, transpile, fusion-plan, and swap-route
// once per distinct spec content, so a batch of K bindings shares one
// compiled schedule exactly like the state-vector engines share a fusion
// plan.
func compiledMPS(cache *core.ParseCache, spec core.CircuitSpec) (*mps.Compiled, error) {
	v, err := cache.Memo(spec, "mps-schedule", func(c *circuit.Circuit) (any, error) {
		return mps.CompileCircuit(c)
	})
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	return v.(*mps.Compiled), nil
}

// runMPSOne executes one binding of a compiled MPS schedule and marshals
// the unified result: counts, cumulative discarded weight, the
// multiplicative fidelity estimate, and the exact <H> when an observable is
// attached.
func runMPSOne(cc *mps.Compiled, binding core.Bindings, opts core.RunOptions, defaultBond, workers int) (core.ExecResult, error) {
	mopt := mps.Options{MaxBond: opts.MaxBond, Cutoff: opts.Cutoff, Workers: workers}
	if mopt.MaxBond <= 0 {
		mopt.MaxBond = defaultBond
	}
	m, err := cc.Execute(binding, mopt)
	if err != nil {
		return core.ExecResult{}, err
	}
	defer m.Release()
	var ev *float64
	if opts.Observable != nil {
		v := m.ExpectationHamiltonian(obsHamiltonian(opts.Observable, cc.N))
		ev = &v
	}
	return core.ExecResult{
		Counts:   m.Sample(opts.Shots, newRNG(opts)),
		TruncErr: m.TruncErr,
		ExpVal:   ev,
		Extra: map[string]float64{
			"mps_fidelity":  m.Fidelity(),
			"mps_peak_bond": float64(m.PeakBond()),
			"mps_swaps":     float64(cc.Swaps),
		},
	}, nil
}

// runMPSSingle is the one-shot (Execute) MPS path: fetch the compiled
// schedule through the cache (no extra parse) and run the single element.
// Parametric specs are rejected here — single execution has no bindings.
func runMPSSingle(cache *core.ParseCache, spec core.CircuitSpec, opts core.RunOptions, defaultBond, workers int) (core.ExecResult, error) {
	cc, err := compiledMPS(cache, spec)
	if err != nil {
		return core.ExecResult{}, err
	}
	if ps := cc.Params(); len(ps) > 0 {
		return core.ExecResult{}, fmt.Errorf("backend: parametric spec %q requires batch execution (unbound params %v)", spec.Name, ps)
	}
	return runMPSOne(cc, nil, opts, defaultBond, workers)
}

// runMPSBatch is the BatchExecutor body of the MPS sub-backends: one
// compiled schedule per spec, elements fanned across a core-bounded pool
// with per-element deterministic seeds (each element runs its kernels
// serially — the parallelism budget goes to the fan-out).
func runMPSBatch(cache *core.ParseCache, spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions, defaultBond int) ([]core.ExecResult, error) {
	cc, err := compiledMPS(cache, spec)
	if err != nil {
		return nil, err
	}
	out := make([]core.ExecResult, len(bindings))
	errs := make([]error, len(bindings))
	core.FanOut(len(bindings), runtime.GOMAXPROCS(0), func(i int) {
		res, err := runMPSOne(cc, bindings[i], opts.ForElement(i), defaultBond, 1)
		if err != nil {
			errs[i] = fmt.Errorf("batch element %d: %w", i, err)
			return
		}
		out[i] = res
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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

// clampPow2 returns the largest power of two <= v (at least 1).
func clampPow2(v int) int {
	if v < 1 {
		return 1
	}
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
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

// simulateSV runs the serial/chunked state-vector path with optional exact
// expectation (fast diagonal path; general Pauli sums via the full
// Pauli-apply contraction). Execution goes through the gate-fusion engine;
// plan may be nil (one-shot circuits plan on the spot) or the cached plan of
// the batch ansatz — it must have been built from c.StripMeasurements()'s
// structure. A non-nil sched is the batch's cached tile schedule: elements
// run the cache-blocked staged engine without re-partitioning; with a nil
// sched the engine decides per call. The amplitude buffer returns to the
// arena before the call returns, so batch elements recycle state memory
// instead of allocating 2^n complex128 each.
func simulateSV(c *circuitT, plan *circuit.FusionPlan, sched *circuit.DistSchedule, shots, workers int, rng *rand.Rand, obs *core.Observable) (map[string]int, *float64) {
	var s *statevec.State
	if sched != nil {
		s, _ = statevec.RunFusedStaged(c.StripMeasurements(), plan, sched, workers, rng)
	} else {
		s, _ = statevec.RunFused(c.StripMeasurements(), plan, workers, rng)
	}
	counts := s.SampleCounts(shots, rng)
	var ev *float64
	if obs != nil {
		var v float64
		if obs.IsDiagonal() {
			v = s.ExpectationDiagonal(obs.EnergyOfIndex)
		} else {
			v = s.ExpectationHamiltonian(obsHamiltonian(obs, c.NQubits))
		}
		ev = &v
	}
	s.Release()
	return counts, ev
}

// normalizeSub lowercases and trims a sub-backend name.
func normalizeSub(s, def string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return def
	}
	return s
}
