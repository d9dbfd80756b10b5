package qaoa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/qubo"
	"qfw/internal/statevec"
)

// TestQAOAAnsatzAdjointVsParamShift checks the two analytic methods agree
// to 1e-9 on the real QAOA ansatz (shared gamma/beta parameters with
// per-gate affine coefficients) and match finite differences to 1e-7.
func TestQAOAAnsatzAdjointVsParamShift(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := qubo.Random(7, 0.6, 1.0, rng)
	h, _ := q.CostHamiltonian()
	ansatz := BuildAnsatz(h, 2)
	obs := statevec.GradObs{Diag: ObservableFromQUBO(q).EnergyOfIndex}
	binding := BindParams([]float64{0.4, -0.7, 0.9, 0.15})

	plan := circuit.PlanFusionGrad(ansatz)
	aval, agrad, err := statevec.GradientAdjoint(plan, binding, obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	splan, err := circuit.PlanParamShift(ansatz)
	if err != nil {
		t.Fatal(err)
	}
	sval, sgrad, err := statevec.GradientParamShift(splan, binding, obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aval-sval) > 1e-9 {
		t.Fatalf("value: adjoint %.15g vs shift %.15g", aval, sval)
	}
	for i, name := range plan.Params() {
		if math.Abs(agrad[i]-sgrad[i]) > 1e-9 {
			t.Errorf("param %s: adjoint %.15g vs shift %.15g", name, agrad[i], sgrad[i])
		}
	}
	// Finite differences against the full Solve-path expectation.
	value := func(b map[string]float64) float64 {
		s, _ := statevec.RunFused(ansatz.Bind(b).StripMeasurements(), nil, 1, rand.New(rand.NewSource(1)))
		defer s.Release()
		return s.ExpectationDiagonal(obs.Diag)
	}
	const eps = 1e-5
	for i, name := range plan.Params() {
		up := BindParams([]float64{0.4, -0.7, 0.9, 0.15})
		dn := BindParams([]float64{0.4, -0.7, 0.9, 0.15})
		up[name] += eps
		dn[name] -= eps
		fd := (value(up) - value(dn)) / (2 * eps)
		if math.Abs(agrad[i]-fd) > 1e-7 {
			t.Errorf("param %s: adjoint %.12g vs finite diff %.12g", name, agrad[i], fd)
		}
	}
}

// TestLocalRunnerRunGradient checks the runner-level gradient API ordering
// and the diagonal fast path.
func TestLocalRunnerRunGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := qubo.Random(5, 0.5, 1.0, rng)
	h, _ := q.CostHamiltonian()
	ansatz := BuildAnsatz(h, 1)
	obs := ObservableFromQUBO(q)
	runner := LocalRunner{}
	if !runner.SupportsGradients() {
		t.Fatal("LocalRunner must support gradients")
	}
	bindings := []core.Bindings{
		BindParams([]float64{0.3, 0.7}),
		BindParams([]float64{-0.2, 1.4}),
		BindParams([]float64{0.9, -0.5}),
	}
	results, err := runner.RunGradient(ansatz, bindings, core.RunOptions{Observable: obs})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results %d", len(results))
	}
	// Cross-check element 1 against the direct engine call.
	plan := circuit.PlanFusionGrad(ansatz)
	val, grad, err := statevec.GradientAdjoint(plan, bindings[1], statevec.GradObs{Diag: obs.EnergyOfIndex}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[1].Value-val) > 1e-12 {
		t.Fatalf("value mismatch: %.15g vs %.15g", results[1].Value, val)
	}
	for j := range grad {
		if math.Abs(results[1].Grad[j]-grad[j]) > 1e-12 {
			t.Fatalf("grad[%d] mismatch", j)
		}
	}
	if _, err := runner.RunGradient(ansatz, bindings, core.RunOptions{}); err == nil {
		t.Fatal("expected observable-required error")
	}
}

// TestSolveGradientPathsConverge runs the full hybrid loop under every
// optimizer/differentiation combination and checks each reaches a good
// solution with a sane eval account.
func TestSolveGradientPathsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := qubo.Random(6, 0.6, 1.0, rng)
	_, bestE := solveExact(q)
	cases := []struct {
		name string
		opts Options
	}{
		{"adam-adjoint", Options{P: 2, MaxEvals: 120, Seed: 3, Optimizer: "adam", Gradient: "adjoint"}},
		{"gd-adjoint", Options{P: 2, MaxEvals: 120, Seed: 3, Optimizer: "gd", Gradient: "adjoint"}},
		{"adam-paramshift", Options{P: 2, MaxEvals: 400, Seed: 3, Optimizer: "adam", Gradient: "paramshift"}},
		{"auto", Options{P: 2, MaxEvals: 120, Seed: 3}},
		{"spsa", Options{P: 2, MaxEvals: 200, Seed: 3, Optimizer: "spsa"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(q, LocalRunner{}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evals == 0 {
				t.Fatal("no evaluations accounted")
			}
			if res.Evals > 3*tc.opts.MaxEvals/2+1 {
				t.Fatalf("eval budget blown: %d for MaxEvals %d", res.Evals, tc.opts.MaxEvals)
			}
			// The sampled solution should be near the optimum on this tiny
			// instance for every method.
			if res.Energy > bestE+1e-9 && res.Energy-bestE > 0.6*math.Abs(bestE) {
				t.Fatalf("energy %.4f far from optimum %.4f", res.Energy, bestE)
			}
		})
	}
}

// TestSolveAdjointBeatsNelderMead is the loop-level acceptance property of
// the gradient engine on QAOA p=2: Adam over adjoint gradients, stopped at
// the objective Nelder-Mead reaches on a 240-eval budget, gets there on
// fewer circuit-equivalent evaluations. Fully seeded, so deterministic.
func TestSolveAdjointBeatsNelderMead(t *testing.T) {
	const seed = 72
	q := qubo.Random(10, 0.5, 1.0, rand.New(rand.NewSource(seed)))
	base := Options{P: 2, Shots: 64, Seed: seed, ExactExpectation: true}
	nmOpts := base
	nmOpts.Optimizer, nmOpts.MaxEvals = "neldermead", 240
	nm, err := Solve(q, LocalRunner{}, nmOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Target is compared against the expectation before Solve adds the
	// QUBO's constant offset back.
	_, offset := q.CostHamiltonian()
	target := nm.Expectation - offset
	adjOpts := base
	adjOpts.Optimizer, adjOpts.Gradient, adjOpts.Target, adjOpts.MaxEvals = "adam", "adjoint", &target, 8*240
	adj, err := Solve(q, LocalRunner{}, adjOpts)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Evals >= nm.Evals {
		t.Errorf("adjoint spent %d evals, Nelder-Mead %d: no win", adj.Evals, nm.Evals)
	}
	if adj.Expectation > nm.Expectation+1e-9 {
		t.Errorf("adjoint objective %.6f worse than Nelder-Mead %.6f", adj.Expectation, nm.Expectation)
	}
}

func solveExact(q *qubo.QUBO) ([]int, float64) {
	best := math.Inf(1)
	var bits []int
	cur := make([]int, q.N)
	for mask := 0; mask < 1<<uint(q.N); mask++ {
		for i := 0; i < q.N; i++ {
			cur[i] = (mask >> uint(i)) & 1
		}
		if e := q.Energy(cur); e < best {
			best = e
			bits = append([]int(nil), cur...)
		}
	}
	return bits, best
}

// TestSolveAutoUsesGradients asserts the auto strategy picks the adjoint
// path on a gradient-capable runner (observable attached, gradient-shaped
// eval count) and Nelder-Mead on a plain runner.
func TestSolveAutoUsesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := qubo.Random(5, 0.5, 1.0, rng)
	grad := &probeRunner{inner: LocalRunner{}, gradients: true}
	if _, err := Solve(q, grad, Options{P: 1, MaxEvals: 60, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if grad.gradCalls == 0 {
		t.Fatal("auto strategy did not use the gradient path")
	}
	plain := &probeRunner{inner: LocalRunner{}, gradients: false}
	if _, err := Solve(q, plain, Options{P: 1, MaxEvals: 60, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if plain.gradCalls != 0 {
		t.Fatal("gradient path used despite the capability being off")
	}
	if _, err := Solve(q, plain, Options{P: 1, MaxEvals: 60, Seed: 2, Optimizer: "adam", Gradient: "adjoint"}); err == nil {
		t.Fatal("explicit adjoint request on a non-gradient runner must fail")
	}
}

// probeRunner wraps LocalRunner with a switchable gradient capability.
type probeRunner struct {
	inner     LocalRunner
	gradients bool
	gradCalls int
}

func (p *probeRunner) Run(c *circuit.Circuit, opts core.RunOptions) (*core.Result, error) {
	return p.inner.Run(c, opts)
}

func (p *probeRunner) RunBatch(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, error) {
	return p.inner.RunBatch(c, bindings, opts)
}

func (p *probeRunner) SupportsGradients() bool { return p.gradients }

func (p *probeRunner) RunGradient(c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.GradResult, error) {
	if !p.gradients {
		return nil, fmt.Errorf("probe: gradients disabled")
	}
	p.gradCalls++
	return p.inner.RunGradient(c, bindings, opts)
}
