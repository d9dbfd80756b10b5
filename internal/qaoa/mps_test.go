package qaoa

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qfw/internal/core"
	"qfw/internal/optimize"
	"qfw/internal/qubo"
)

// TestSolveOnMPSEngine runs the full hybrid loop with the compiled MPS
// engine behind LocalRunner: the solve must fall back to derivative-free
// optimization (no adjoint on MPS) and still reach the optimum of a small
// QUBO.
func TestSolveOnMPSEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := qubo.Random(6, 0.7, 1, rng)
	_, exact := optimize.BruteForce(q)
	runner := LocalRunner{Engine: "mps"}
	if runner.SupportsGradients() {
		t.Fatalf("the MPS engine must not advertise adjoint gradients")
	}
	res, err := Solve(q, runner, Options{P: 2, Shots: 512, MaxEvals: 60, Seed: 3, ExactExpectation: true})
	if err != nil {
		t.Fatal(err)
	}
	quality := optimize.SolutionQuality(res.Energy, exact, 0)
	if res.Energy > exact+1e-9 && quality < 0.9 {
		t.Fatalf("MPS-engine QAOA energy %g vs exact %g (quality %g)", res.Energy, exact, quality)
	}
	if len(res.Bits) != 6 {
		t.Fatalf("result %+v", res)
	}
}

// TestMPSEngineMatchesStatevectorExpectation pins engine agreement at the
// runner level: exact <H> of one bound ansatz must agree between the MPS
// and state-vector engines to simulator precision.
func TestMPSEngineMatchesStatevectorExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := qubo.Random(7, 0.6, 1, rng)
	h, _ := q.CostHamiltonian()
	ansatz := BuildAnsatz(h, 2)
	obs := ObservableFromQUBO(q)
	bindings := []core.Bindings{
		BindParams([]float64{0.3, 0.8, 0.5, 0.2}),
		BindParams([]float64{0.7, 0.1, 0.9, 0.4}),
	}
	opts := core.RunOptions{Shots: 128, Seed: 9, Observable: obs}
	sv, err := LocalRunner{}.RunBatch(ansatz, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := LocalRunner{Engine: "mps"}.RunBatch(ansatz, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bindings {
		if sv[i].ExpVal == nil || mp[i].ExpVal == nil {
			t.Fatalf("element %d missing exact expectation", i)
		}
		if d := math.Abs(*sv[i].ExpVal - *mp[i].ExpVal); d > 1e-9 {
			t.Fatalf("element %d: statevector <H> %g vs mps <H> %g (diff %g)", i, *sv[i].ExpVal, *mp[i].ExpVal, d)
		}
		if mp[i].TruncErr > 1e-9 {
			t.Fatalf("element %d truncated (%g) at n=7 under the default bond cap", i, mp[i].TruncErr)
		}
	}
}

// TestMPSEngineBatchDeterminism pins seeded batch determinism at the
// runner level: two identical RunBatch calls must agree bit for bit.
func TestMPSEngineBatchDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := qubo.Random(6, 0.5, 1, rng)
	h, _ := q.CostHamiltonian()
	ansatz := BuildAnsatz(h, 1)
	bindings := []core.Bindings{
		BindParams([]float64{0.4, 0.6}),
		BindParams([]float64{0.2, 0.9}),
		BindParams([]float64{0.8, 0.1}),
	}
	opts := core.RunOptions{Shots: 256, Seed: 21}
	runner := LocalRunner{Engine: "mps"}
	a, err := runner.RunBatch(ansatz, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.RunBatch(ansatz, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Counts, b[i].Counts) {
			t.Fatalf("element %d counts differ across identical batch runs", i)
		}
	}
	// The MPS runner rejects gradient requests instead of silently failing.
	if _, err := runner.RunGradient(ansatz, bindings, core.RunOptions{Observable: ObservableFromQUBO(q)}); err == nil {
		t.Fatalf("RunGradient on the MPS engine should fail loudly")
	}
}

// TestLocalRunnerAnalyticRequest pins LocalRunner to the executors' shot
// contract on both engines: shots 0 with an observable returns the exact
// ⟨H⟩ of a sampled request and no counts; shots 0 alone samples 1024.
func TestLocalRunnerAnalyticRequest(t *testing.T) {
	q := qubo.Random(6, 0.6, 1, rand.New(rand.NewSource(2)))
	h, _ := q.CostHamiltonian()
	ansatz := BuildAnsatz(h, 1)
	obs := ObservableFromQUBO(q)
	bindings := []core.Bindings{BindParams([]float64{0.4, 0.9}), BindParams([]float64{1.1, 0.2})}
	for _, r := range []LocalRunner{{}, {Engine: "mps"}} {
		analytic, err := r.RunBatch(ansatz, bindings, core.RunOptions{Seed: 3, Observable: obs})
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := r.RunBatch(ansatz, bindings, core.RunOptions{Shots: 256, Seed: 3, Observable: obs})
		if err != nil {
			t.Fatal(err)
		}
		single, err := r.Run(ansatz.Bind(bindings[0]), core.RunOptions{Seed: 3, Observable: obs})
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range append(analytic, single) {
			if res.Counts != nil || res.ExpVal == nil {
				t.Fatalf("engine %q element %d: %d counts, ExpVal %v; want none and a value", r.Engine, i, len(res.Counts), res.ExpVal)
			}
			if want := *sampled[i%len(bindings)].ExpVal; *res.ExpVal != want {
				t.Fatalf("engine %q element %d: analytic <H> %v != sampled %v", r.Engine, i, *res.ExpVal, want)
			}
		}
		plain, err := r.Run(ansatz.Bind(bindings[0]), core.RunOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range plain.Counts {
			n += v
		}
		if n != 1024 {
			t.Fatalf("engine %q: shots 0 without an observable sampled %d, want 1024", r.Engine, n)
		}
	}
}
