// Package qaoa implements the Quantum Approximate Optimization Algorithm
// over QUBO problems: the layered cost-mixer ansatz, shot-based expectation
// estimation from backend counts, and the classical optimization loop
// driving any QFw backend through the frontend interface.
package qaoa

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/mps"
	"qfw/internal/optimize"
	"qfw/internal/pauli"
	"qfw/internal/qubo"
	"qfw/internal/statevec"
)

// Runner abstracts circuit execution; *core.Frontend satisfies it, and
// tests can substitute local engines.
type Runner interface {
	Run(c *circuit.Circuit, opts core.RunOptions) (*core.Result, error)
}

// BatchRunner extends Runner with batched parametric execution: one
// (symbolic) circuit plus K bindings evaluated through a single submission.
// *core.Frontend satisfies it via RunBatch (one exec_batch RPC), and
// LocalRunner satisfies it with concurrent in-process evaluation. Solve
// prefers this path: each optimizer iteration ships its whole candidate
// set at once instead of one fully bound circuit per evaluation.
type BatchRunner interface {
	Runner
	RunBatch(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, error)
}

// GradientRunner extends Runner with analytic gradient evaluation: the
// observable in opts.Observable and its exact gradient, per binding, via
// one submission. *core.Frontend satisfies it via RunGradient (backends
// advertising the capability run the adjoint engine), and LocalRunner
// satisfies it in-process. Solve prefers this path whenever the backend
// supports exact expectations: every optimizer step costs O(1) gradient
// evaluations instead of a simplex of full re-executions.
type GradientRunner interface {
	Runner
	RunGradient(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.GradResult, error)
	SupportsGradients() bool
}

// adjointCostFactor is the circuit-equivalent price of one adjoint gradient
// evaluation — one forward sweep plus the two inverse applications of the
// reverse sweep — used to keep optimizer eval budgets comparable across
// methods.
const adjointCostFactor = 3

// BuildAnsatz constructs the depth-p QAOA circuit for a diagonal Ising cost
// Hamiltonian, with symbolic parameters gamma0..gamma{p-1} and
// beta0..beta{p-1}.
func BuildAnsatz(h *pauli.Hamiltonian, p int) *circuit.Circuit {
	if !h.IsDiagonal() {
		panic("qaoa: cost Hamiltonian must be diagonal")
	}
	if p < 1 {
		p = 1
	}
	c := circuit.New(h.NQubits)
	c.Name = fmt.Sprintf("qaoa-%d-p%d", h.NQubits, p)
	for q := 0; q < h.NQubits; q++ {
		c.H(q)
	}
	for layer := 0; layer < p; layer++ {
		gamma := fmt.Sprintf("gamma%d", layer)
		beta := fmt.Sprintf("beta%d", layer)
		for _, term := range h.Terms {
			sup := term.Support()
			switch len(sup) {
			case 1:
				c.RZ(sup[0], circuit.Sym(gamma, 2*term.Coeff))
			case 2:
				c.RZZ(sup[0], sup[1], circuit.Sym(gamma, 2*term.Coeff))
			}
		}
		for q := 0; q < h.NQubits; q++ {
			c.RX(q, circuit.Sym(beta, 2))
		}
	}
	c.MeasureAll()
	return c
}

// BindParams produces the binding map for a flat parameter vector
// [gamma0..gamma{p-1}, beta0..beta{p-1}].
func BindParams(params []float64) map[string]float64 {
	p := len(params) / 2
	m := make(map[string]float64, len(params))
	for i := 0; i < p; i++ {
		m[fmt.Sprintf("gamma%d", i)] = params[i]
		m[fmt.Sprintf("beta%d", i)] = params[p+i]
	}
	return m
}

// ExpectationFromCounts estimates <H> from measurement counts of a diagonal
// Hamiltonian (keys use the Qiskit convention: qubit 0 rightmost). It sums
// in sorted key order, so the same histogram always gives the same bits.
func ExpectationFromCounts(h *pauli.Hamiltonian, counts map[string]int) float64 {
	var total int
	var acc float64
	bits := make([]int, h.NQubits)
	for _, key := range slices.Sorted(maps.Keys(counts)) {
		n := counts[key]
		for q := 0; q < h.NQubits; q++ {
			if key[len(key)-1-q] == '1' {
				bits[q] = 1
			} else {
				bits[q] = 0
			}
		}
		acc += float64(n) * h.DiagonalEnergy(bits)
		total += n
	}
	if total == 0 {
		return 0
	}
	return acc / float64(total)
}

// Options tune a QAOA solve.
type Options struct {
	P        int   // ansatz depth, default 1
	Shots    int   // default 512
	MaxEvals int   // optimizer budget in circuit-equivalent evaluations, default 60
	Seed     int64 // default 1
	Run      core.RunOptions

	// ExactExpectation attaches the cost operator as an Observable so local
	// simulator backends return the exact <H> instead of the shot estimate
	// (the noiseless optimization path; cloud backends still estimate from
	// counts). Subject of the expectation-path ablation benchmark.
	ExactExpectation bool

	// Optimizer selects the classical update rule: "auto" (default — Adam
	// over analytic gradients when the runner supports them, Nelder-Mead
	// otherwise), "adam", "gd" (gradient descent with Armijo line search),
	// "neldermead", or "spsa".
	Optimizer string

	// Gradient selects the differentiation method for the gradient-based
	// optimizers: "auto" (default — adjoint through the runner's gradient
	// capability, parameter-shift batches otherwise), "adjoint", or
	// "paramshift". Parameter-shift fans the shifted bindings through the
	// ordinary RunBatch path, so it works on any batch-capable backend,
	// shot-based and cloud included.
	Gradient string

	// LR overrides the gradient optimizer's step size (default 0.1).
	LR float64

	// Population sizes the Adam gradient path's multi-start population
	// (default 4; 1 disables multi-start). Every member's gradient rides
	// the same batched submission, so extra starts cost evaluations but no
	// extra round trips — the insurance against a single descent trajectory
	// settling into a worse basin than Nelder-Mead's simplex search.
	Population int

	// Target, when non-nil, stops the optimization as soon as the objective
	// reaches the given value — the equal-convergence-target mode of the
	// gradient ablation benchmark. Honored by the adam, gd, and neldermead
	// paths; spsa has no early-stop hook and ignores it.
	Target *float64
}

// ObservableFromQUBO converts a QUBO's Ising form into the wire-format
// diagonal observable (without the constant offset). Couplings are emitted
// in pauli.SortedPairs order, never map order: their order decides
// floating-point summation order in expectation and gradient evaluations,
// and two solves with the same seed must agree bit for bit.
func ObservableFromQUBO(q *qubo.QUBO) *core.Observable {
	h, js, _ := q.ToIsing()
	obs := &core.Observable{Fields: h}
	for _, pair := range pauli.SortedPairs(js) {
		if v := js[pair]; v != 0 {
			obs.Couplings = append(obs.Couplings, core.Coupling{I: pair[0], J: pair[1], V: v})
		}
	}
	return obs
}

// Result summarizes a QAOA solve.
type Result struct {
	Bits        []int
	Energy      float64 // QUBO energy of the best sampled bitstring
	Expectation float64 // final <H> + offset
	Evals       int     // circuit-equivalent evaluations used (adjoint gradient = 3)
	Params      []float64
}

// resolveStrategy picks the optimizer and differentiation method from the
// options and the runner's capabilities: "auto" prefers Adam over adjoint
// gradients when the runner differentiates, parameter-shift batches when it
// only batches (and was asked for gradients explicitly), and Nelder-Mead
// otherwise. Explicit requests that the runner cannot satisfy fail loudly
// instead of silently degrading.
func resolveStrategy(runner Runner, opts *Options) (optName, gradMode string, err error) {
	optName = opts.Optimizer
	if optName == "" {
		optName = "auto"
	}
	gradMode = opts.Gradient
	if gradMode == "" {
		gradMode = "auto"
	}
	gr, hasGR := runner.(GradientRunner)
	grOK := hasGR && gr.SupportsGradients()
	_, brOK := runner.(BatchRunner)
	switch optName {
	case "neldermead", "nm":
		return "neldermead", "", nil
	case "spsa":
		if !brOK {
			return "", "", fmt.Errorf("qaoa: spsa optimizer needs a batch-capable runner")
		}
		return "spsa", "", nil
	case "adam", "gd":
		switch gradMode {
		case "auto":
			if grOK {
				return optName, "adjoint", nil
			}
			if brOK {
				return optName, "paramshift", nil
			}
			return "", "", fmt.Errorf("qaoa: optimizer %q needs a gradient- or batch-capable runner", optName)
		case "adjoint":
			if !grOK {
				return "", "", fmt.Errorf("qaoa: runner does not support adjoint gradients")
			}
			return optName, "adjoint", nil
		case "paramshift":
			if !brOK {
				return "", "", fmt.Errorf("qaoa: parameter-shift gradients need a batch-capable runner")
			}
			return optName, "paramshift", nil
		}
		return "", "", fmt.Errorf("qaoa: unknown gradient method %q", gradMode)
	case "auto":
		switch gradMode {
		case "off":
			return "neldermead", "", nil
		case "adjoint":
			if !grOK {
				return "", "", fmt.Errorf("qaoa: runner does not support adjoint gradients")
			}
			return "adam", "adjoint", nil
		case "paramshift":
			if !brOK {
				return "", "", fmt.Errorf("qaoa: parameter-shift gradients need a batch-capable runner")
			}
			return "adam", "paramshift", nil
		case "auto":
			if grOK {
				return "adam", "adjoint", nil
			}
			return "neldermead", "", nil
		}
		return "", "", fmt.Errorf("qaoa: unknown gradient method %q", gradMode)
	}
	return "", "", fmt.Errorf("qaoa: unknown optimizer %q", optName)
}

// flatGradIndex maps the flat [gamma0..γp-1, beta0..βp-1] parameter vector
// onto the sorted-name order gradient results come back in.
func flatGradIndex(p int, sorted []string) []int {
	pos := make(map[string]int, len(sorted))
	for i, n := range sorted {
		pos[n] = i
	}
	idx := make([]int, 2*p)
	for i := 0; i < p; i++ {
		idx[i] = pos[fmt.Sprintf("gamma%d", i)]
		idx[p+i] = pos[fmt.Sprintf("beta%d", i)]
	}
	return idx
}

// Solve runs the full hybrid loop: build ansatz, optimize (γ, β), then
// sample the optimum and return the best bitstring by true QUBO energy.
// The classical update rule follows Options.Optimizer: with a
// gradient-capable runner the loop defaults to Adam over exact adjoint
// gradients (O(1) gradient evaluations per step — the per-evaluation cost
// the paper's timeline analysis identifies as the scaling bottleneck),
// falling back to batched Nelder-Mead over expectation estimates otherwise.
func Solve(q *qubo.QUBO, runner Runner, opts Options) (*Result, error) {
	if opts.P <= 0 {
		opts.P = 1
	}
	if opts.Shots <= 0 {
		opts.Shots = 512
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 60
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	optName, gradMode, err := resolveStrategy(runner, &opts)
	if err != nil {
		return nil, err
	}
	h, offset := q.CostHamiltonian()
	ansatz := BuildAnsatz(h, opts.P)
	rng := rand.New(rand.NewSource(opts.Seed))
	var obs *core.Observable
	if opts.ExactExpectation || gradMode != "" {
		// Gradient objectives differentiate the observable, so the gradient
		// paths always attach it regardless of the expectation option.
		obs = ObservableFromQUBO(q)
	}

	evals := 0
	var firstErr error
	x0 := make([]float64, 2*opts.P)
	for i := range x0 {
		x0[i] = 0.1 + 0.4*rng.Float64()
	}
	nmOpts := optimize.NMOptions{MaxEvals: opts.MaxEvals, InitStep: 0.4}
	if opts.Target != nil {
		nmOpts.Target = *opts.Target
		nmOpts.HasTarget = true
	}
	var best []float64
	var bestF float64
	switch {
	case gradMode != "":
		best, bestF = solveGradient(runner, ansatz, h, obs, x0, optName, gradMode, &opts, &evals, &firstErr)
	case optName == "spsa":
		br := runner.(BatchRunner)
		objective := batchObjective(br, ansatz, h, obs, &opts, &evals, &firstErr)
		const pairs = 2
		iters := opts.MaxEvals / (2*pairs + 1)
		if iters < 1 {
			iters = 1
		}
		best, bestF = optimize.SPSABatch(objective, x0, iters, pairs, rng)
	default:
		if br, ok := runner.(BatchRunner); ok {
			// Batched path: each candidate set becomes one RunBatch
			// submission — the ansatz ships once (symbolically) and element
			// i inherits the seed the serial loop would have used.
			objective := batchObjective(br, ansatz, h, obs, &opts, &evals, &firstErr)
			best, bestF, _ = optimize.NelderMeadBatch(objective, x0, nmOpts)
		} else {
			objective := func(params []float64) float64 {
				if firstErr != nil {
					return math.Inf(1)
				}
				evals++
				bound := ansatz.Bind(BindParams(params))
				runOpts := opts.Run
				runOpts.Shots = opts.Shots
				runOpts.Seed = opts.Seed + int64(evals)
				runOpts.Observable = obs
				res, err := runner.Run(bound, runOpts)
				if err != nil {
					firstErr = err
					return math.Inf(1)
				}
				if res.ExpVal != nil {
					return *res.ExpVal
				}
				return ExpectationFromCounts(h, res.Counts)
			}
			best, bestF, _ = optimize.NelderMead(objective, x0, nmOpts)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Final sampling at the optimum; best observed bitstring wins.
	bound := ansatz.Bind(BindParams(best))
	runOpts := opts.Run
	runOpts.Shots = opts.Shots * 2
	runOpts.Seed = opts.Seed + 7777
	res, err := runner.Run(bound, runOpts)
	if err != nil {
		return nil, err
	}
	bits, energy := bestSampled(q, res.Counts)
	return &Result{
		Bits:        bits,
		Energy:      energy,
		Expectation: bestF + offset,
		Evals:       evals,
		Params:      best,
	}, nil
}

// batchObjective builds the shared value-only batch objective: one RunBatch
// submission per candidate set, exact expectations when the observable is
// attached and the backend returns them, count estimates otherwise.
func batchObjective(br BatchRunner, ansatz *circuit.Circuit, h *pauli.Hamiltonian, obs *core.Observable,
	opts *Options, evals *int, firstErr *error) optimize.BatchObjective {
	return func(paramSets [][]float64) []float64 {
		out := make([]float64, len(paramSets))
		seedBase := opts.Seed + int64(*evals)
		*evals += len(paramSets)
		if *firstErr != nil {
			for i := range out {
				out[i] = math.Inf(1)
			}
			return out
		}
		bindings := make([]core.Bindings, len(paramSets))
		for i, ps := range paramSets {
			bindings[i] = BindParams(ps)
		}
		runOpts := opts.Run
		runOpts.Shots = opts.Shots
		runOpts.Seed = seedBase + 1
		runOpts.Observable = obs
		results, err := br.RunBatch(ansatz, bindings, runOpts)
		for i := range out {
			if err == nil && (i >= len(results) || results[i] == nil) {
				err = fmt.Errorf("qaoa: batch returned no result for element %d", i)
			}
			if err != nil {
				if *firstErr == nil {
					*firstErr = err
				}
				out[i] = math.Inf(1)
				continue
			}
			if results[i].ExpVal != nil {
				out[i] = *results[i].ExpVal
			} else {
				out[i] = ExpectationFromCounts(h, results[i].Counts)
			}
		}
		return out
	}
}

// solveGradient runs the gradient-driven optimization loop. The objective's
// value-and-gradient hook goes through the runner's adjoint capability (one
// RunGradient submission per candidate set, ~3 circuit-equivalents each) or
// through parameter-shift batches on the plain RunBatch path (1 + 2·shift
// terms circuit evaluations per point, all in one round trip). MaxEvals is
// spent as a circuit-equivalent budget so methods stay comparable.
func solveGradient(runner Runner, ansatz *circuit.Circuit, h *pauli.Hamiltonian, obs *core.Observable,
	x0 []float64, optName, gradMode string, opts *Options, evals *int, firstErr *error) ([]float64, float64) {
	p := opts.P
	fail := func(xs [][]float64, err error) ([]float64, [][]float64) {
		if *firstErr == nil && err != nil {
			*firstErr = err
		}
		vals := make([]float64, len(xs))
		grads := make([][]float64, len(xs))
		for i := range xs {
			vals[i] = math.Inf(1)
			grads[i] = make([]float64, 2*p)
		}
		return vals, grads
	}
	var gradObj optimize.BatchGradObjective
	var gradCost int // circuit-equivalents per gradient evaluation
	switch gradMode {
	case "adjoint":
		gr := runner.(GradientRunner)
		fidx := flatGradIndex(p, ansatz.ParamNames())
		gradCost = adjointCostFactor
		gradObj = func(xs [][]float64) ([]float64, [][]float64) {
			if *firstErr != nil {
				return fail(xs, nil)
			}
			*evals += gradCost * len(xs)
			bindings := make([]core.Bindings, len(xs))
			for i, x := range xs {
				bindings[i] = BindParams(x)
			}
			runOpts := opts.Run
			runOpts.Shots = opts.Shots
			runOpts.Seed = opts.Seed
			runOpts.Observable = obs
			results, err := gr.RunGradient(ansatz, bindings, runOpts)
			if err != nil {
				return fail(xs, err)
			}
			vals := make([]float64, len(xs))
			grads := make([][]float64, len(xs))
			for i, res := range results {
				vals[i] = res.Value
				g := make([]float64, 2*p)
				for j, at := range fidx {
					g[j] = res.Grad[at]
				}
				grads[i] = g
			}
			return vals, grads
		}
	case "paramshift":
		br := runner.(BatchRunner)
		splan, err := circuit.PlanParamShift(ansatz)
		if err != nil {
			*firstErr = err
			return x0, math.Inf(1)
		}
		fidx := flatGradIndex(p, splan.Params())
		gradCost = splan.NumBindings()
		gradObj = func(xs [][]float64) ([]float64, [][]float64) {
			if *firstErr != nil {
				return fail(xs, nil)
			}
			*evals += gradCost * len(xs)
			// All shifted bindings of every candidate ride one submission.
			all := make([]core.Bindings, 0, gradCost*len(xs))
			for _, x := range xs {
				for _, b := range splan.Bindings(BindParams(x)) {
					all = append(all, b)
				}
			}
			runOpts := opts.Run
			runOpts.Shots = opts.Shots
			runOpts.Seed = opts.Seed
			runOpts.Observable = obs
			results, err := br.RunBatch(splan.Circuit, all, runOpts)
			if err != nil {
				return fail(xs, err)
			}
			if len(results) != len(all) {
				return fail(xs, fmt.Errorf("qaoa: gradient batch returned %d results for %d bindings", len(results), len(all)))
			}
			vals := make([]float64, len(xs))
			grads := make([][]float64, len(xs))
			for i := range xs {
				chunk := results[i*gradCost : (i+1)*gradCost]
				es := make([]float64, gradCost)
				for j, res := range chunk {
					if res == nil {
						return fail(xs, fmt.Errorf("qaoa: gradient batch returned no result for element %d", i*gradCost+j))
					}
					if res.ExpVal != nil {
						es[j] = *res.ExpVal
					} else {
						es[j] = ExpectationFromCounts(h, res.Counts)
					}
				}
				val, grad, err := splan.Assemble(es)
				if err != nil {
					return fail(xs, err)
				}
				vals[i] = val
				g := make([]float64, 2*p)
				for j, at := range fidx {
					g[j] = grad[at]
				}
				grads[i] = g
			}
			return vals, grads
		}
	}
	gopts := optimize.GradOptions{LR: opts.LR}
	if gopts.LR == 0 {
		// QAOA angles move on the scale of radians; the literature Adam
		// default of 0.1 crawls on these landscapes.
		if optName == "gd" {
			gopts.LR = 0.5
		} else {
			gopts.LR = 0.3
		}
	}
	if opts.Target != nil {
		gopts.Target = *opts.Target
		gopts.HasTarget = true
	}
	switch optName {
	case "gd":
		// Per iteration: one gradient evaluation plus a four-point Armijo
		// ladder — value-only through the batch path when available, at
		// full gradient price otherwise (GradientDescent falls back to the
		// gradient hook for the ladder, so cost it honestly).
		perIter := gradCost + 4
		if br, ok := runner.(BatchRunner); ok {
			gopts.Line = batchObjective(br, ansatz, h, obs, opts, evals, firstErr)
		} else {
			perIter = gradCost + gradCost*4
		}
		gopts.MaxIters = opts.MaxEvals / perIter
		if gopts.MaxIters < 1 {
			gopts.MaxIters = 1
		}
		best, bestF, _ := optimize.GradientDescent(gradObj, x0, gopts)
		return best, bestF
	default: // adam
		pop := opts.Population
		if pop <= 0 {
			// Multi-start is near-free insurance when a gradient costs ~3
			// evaluations; at parameter-shift prices (2 per parametric gate
			// occurrence) the budget is better spent on iteration depth.
			if gradMode == "adjoint" {
				pop = 4
			} else {
				pop = 1
			}
		}
		starts := make([][]float64, pop)
		starts[0] = x0
		srng := rand.New(rand.NewSource(opts.Seed + 999))
		for s := 1; s < pop; s++ {
			x := make([]float64, len(x0))
			for i := range x {
				x[i] = 0.1 + 0.4*srng.Float64()
			}
			starts[s] = x
		}
		gopts.MaxIters = opts.MaxEvals / (gradCost * pop)
		if gopts.MaxIters < 1 {
			gopts.MaxIters = 1
		}
		best, bestF, _ := optimize.AdamPopulation(gradObj, starts, gopts)
		return best, bestF
	}
}

// bestSampled returns the sampled bitstring with the lowest QUBO energy;
// of equal energies (a QUBO's complement symmetry makes them common) the
// smaller key wins.
func bestSampled(q *qubo.QUBO, counts map[string]int) ([]int, float64) {
	bestE := math.Inf(1)
	var best []int
	for _, key := range slices.Sorted(maps.Keys(counts)) {
		bits := make([]int, q.N)
		for i := 0; i < q.N; i++ {
			if key[len(key)-1-i] == '1' {
				bits[i] = 1
			}
		}
		if e := q.Energy(bits); e < bestE {
			bestE = e
			best = bits
		}
	}
	return best, bestE
}

// LocalRunner executes circuits directly on the in-process simulation
// engines, bypassing the orchestration stack — used by unit tests and as
// the zero-overhead baseline in the ablation benchmarks.
type LocalRunner struct {
	Workers int

	// Engine selects the simulator: "" or "statevector" (default) runs the
	// fused state-vector engine; "mps" runs the compiled matrix-product-state
	// schedule (MaxBond and Cutoff tune its truncation), which opens qubit
	// counts the dense engine cannot reach. The MPS engine has no adjoint
	// gradients, so solves over it fall back to batched Nelder-Mead.
	Engine  string
	MaxBond int
	Cutoff  float64
}

// localShots resolves a request's shot count the way the QPM does for
// remote runs: shots 0 with an observable is an analytic query (no counts),
// shots 0 without one samples 1024.
func localShots(opts core.RunOptions) int {
	if opts.Shots <= 0 && opts.Observable == nil {
		return 1024
	}
	return opts.Shots
}

// Run implements Runner.
func (l LocalRunner) Run(c *circuit.Circuit, opts core.RunOptions) (*core.Result, error) {
	w := l.Workers
	if w <= 0 {
		w = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	shots := localShots(opts)
	if l.Engine == "mps" {
		cc, err := mps.CompileCircuit(c)
		if err != nil {
			return nil, fmt.Errorf("qaoa: %w", err)
		}
		return l.mpsResult(cc, nil, shots, rng, opts.Observable, w)
	}
	s, _ := statevec.RunFused(c.StripMeasurements(), nil, w, rng)
	res := &core.Result{Counts: s.SampleCounts(shots, rng), Backend: "local"}
	if opts.Observable != nil {
		var v float64
		if opts.Observable.IsDiagonal() {
			v = s.ExpectationDiagonal(opts.Observable.EnergyOfIndex)
		} else {
			v = s.ExpectationHamiltonian(hamiltonianFromObservable(opts.Observable, c.NQubits))
		}
		res.ExpVal = &v
	}
	s.Release()
	return res, nil
}

// mpsResult executes one binding of a compiled MPS schedule and marshals a
// local Result (exact <H> through the transfer contraction, truncation
// telemetry in TruncErr/Extra).
func (l LocalRunner) mpsResult(cc *mps.Compiled, binding map[string]float64, shots int, rng *rand.Rand, obs *core.Observable, workers int) (*core.Result, error) {
	m, err := cc.Execute(binding, mps.Options{MaxBond: l.MaxBond, Cutoff: l.Cutoff, Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("qaoa: %w", err)
	}
	defer m.Release()
	res := &core.Result{Backend: "local", Subbackend: "mps", TruncErr: m.TruncErr}
	if obs != nil {
		v := m.ExpectationHamiltonian(hamiltonianFromObservable(obs, cc.N))
		res.ExpVal = &v
	}
	res.Counts = m.Sample(shots, rng)
	res.Extra = map[string]float64{"mps_fidelity": m.Fidelity(), "mps_peak_bond": float64(m.PeakBond())}
	return res, nil
}

// RunBatch implements BatchRunner: elements are dispatched to concurrent
// goroutines bounded by a core-sized semaphore and collected into ordered
// slots — a K-element batch costs at most GOMAXPROCS live executions (and
// their 2^n amplitude arenas) instead of K. On the MPS engine the schedule
// compiles once per call and every element replays it. The blocking collect
// point matters on its own: a caller running many solves concurrently
// (DQAOA's async sub-QAOA client) yields the processor here, so sibling
// solves genuinely overlap even on one core.
func (l LocalRunner) RunBatch(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, error) {
	results := make([]*core.Result, len(bindings))
	errs := make([]error, len(bindings))
	var cc *mps.Compiled
	if l.Engine == "mps" {
		var err error
		if cc, err = mps.CompileCircuit(c); err != nil {
			return nil, fmt.Errorf("qaoa: %w", err)
		}
	}
	core.FanOut(len(bindings), runtime.GOMAXPROCS(0), func(i int) {
		elemOpts := opts.ForElement(i)
		if cc != nil {
			seed := elemOpts.Seed
			if seed == 0 {
				seed = 1
			}
			results[i], errs[i] = l.mpsResult(cc, bindings[i], localShots(elemOpts), rand.New(rand.NewSource(seed)), elemOpts.Observable, 1)
			return
		}
		bound := c.Bind(bindings[i])
		if !bound.IsBound() {
			errs[i] = fmt.Errorf("qaoa: batch element %d leaves params %v unbound", i, bound.ParamNames())
			return
		}
		results[i], errs[i] = l.Run(bound, elemOpts)
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// SupportsGradients implements GradientRunner: the state-vector engine
// always differentiates; the MPS engine has no dense amplitude access, so
// gradient-based optimizers fall back to derivative-free search over it.
func (l LocalRunner) SupportsGradients() bool { return l.Engine != "mps" }

// RunGradient implements GradientRunner on the in-process adjoint engine:
// the gradient plan is built once per call and shared by every binding,
// which fan out through the shared adjoint batch (kernel parallelism
// divides by the in-flight sweep count, so a gradient batch never
// oversubscribes the node).
func (l LocalRunner) RunGradient(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.GradResult, error) {
	if l.Engine == "mps" {
		return nil, fmt.Errorf("qaoa: the mps engine does not support adjoint gradients")
	}
	if opts.Observable == nil {
		return nil, fmt.Errorf("qaoa: gradient execution requires an observable")
	}
	w := l.Workers
	if w <= 0 {
		w = 1
	}
	plan := circuit.PlanFusionGrad(c)
	var obs statevec.GradObs
	if opts.Observable.IsDiagonal() {
		obs = statevec.GradObs{Diag: opts.Observable.EnergyOfIndex}
	} else {
		obs = statevec.GradObs{Ham: hamiltonianFromObservable(opts.Observable, c.NQubits)}
	}
	maps := make([]map[string]float64, len(bindings))
	for i, b := range bindings {
		maps[i] = b
	}
	evals, err := statevec.GradientAdjointBatch(plan, maps, obs, w)
	// Yield before returning: a K=1 gradient submission parks its single
	// element goroutine in the scheduler's run-next slot, so without an
	// explicit yield a fast optimizer loop would monopolize the processor
	// on a single core. The yield preserves RunBatch's documented property
	// that sibling solves (DQAOA's async sub-QAOA client) genuinely overlap.
	runtime.Gosched()
	if err != nil {
		return nil, fmt.Errorf("qaoa: %w", err)
	}
	results := make([]core.GradResult, len(evals))
	for i, e := range evals {
		results[i] = core.GradResult{Value: e.Value, Grad: e.Grad}
	}
	return results, nil
}

// hamiltonianFromObservable converts the wire-format observable into Pauli
// algebra for exact evaluation on local engines.
func hamiltonianFromObservable(o *core.Observable, n int) *pauli.Hamiltonian {
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
