package backends

import (
	"math"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
)

// TestAnalyticRequestShipsNoCounts pins the shot contract on every local
// engine, through the QPM: shots 0 with an observable returns the exact
// ⟨H⟩ and no histogram, shots 0 alone samples 1024, and an explicit count
// samples exactly that many. The analytic ⟨H⟩ is the same value a sampled
// request of the same circuit reports, bit for bit.
func TestAnalyticRequestShipsNoCounts(t *testing.T) {
	s := launch(t)
	// Non-Clifford for the dense and tensor-network engines.
	rot := circuit.New(4)
	for q := 0; q < 4; q++ {
		rot.RY(q, circuit.Bound(0.3+0.2*float64(q)))
	}
	rot.CX(0, 1).CX(2, 3).RZ(1, circuit.Bound(0.7)).CX(1, 2)
	rot.MeasureAll()
	rot.Name = "analytic-rot"
	// Clifford for the stabilizer engine.
	cliff := circuit.New(4)
	cliff.H(0).CX(0, 1).S(1).H(2).CX(2, 3).X(3)
	cliff.MeasureAll()
	cliff.Name = "analytic-cliff"
	obs := &core.Observable{
		Fields:    []float64{0.5, -0.25, 0.75, 0.1},
		Couplings: []core.Coupling{{I: 0, J: 1, V: 0.3}, {I: 2, J: 3, V: -0.6}},
	}

	cases := []struct {
		backend, sub string
		c            *circuit.Circuit
	}{
		{"aer", "statevector", rot},
		{"aer", "stabilizer", cliff},
		{"aer", "matrix_product_state", rot},
		{"nwqsim", "openmp", rot},
		{"nwqsim", "mpi", rot},
		{"qtensor", "numpy", rot},
		{"qtensor", "mpi", rot},
		{"tnqvm", "exatn-mps", rot},
	}
	for _, tc := range cases {
		name := tc.backend + "/" + tc.sub
		f, err := s.Frontend(core.Properties{Backend: tc.backend, Subbackend: tc.sub})
		if err != nil {
			t.Fatal(err)
		}
		run := func(opts core.RunOptions) *core.Result {
			t.Helper()
			opts.Seed, opts.Nodes, opts.ProcsPerNode = 5, 2, 2
			res, err := f.Run(tc.c, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			return res
		}
		sum := func(counts map[string]int) int {
			n := 0
			for _, v := range counts {
				n += v
			}
			return n
		}

		analytic := run(core.RunOptions{Observable: obs})
		sampled := run(core.RunOptions{Shots: 1024, Observable: obs})
		if analytic.Counts != nil {
			t.Errorf("%s: analytic request returned %d counts, want none", name, sum(analytic.Counts))
		}
		if analytic.ExpVal == nil || sampled.ExpVal == nil {
			t.Fatalf("%s: missing expectation value", name)
		}
		a, b := *analytic.ExpVal, *sampled.ExpVal
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: analytic <H> %v != sampled request's %v", name, a, b)
		}
		if n := sum(run(core.RunOptions{}).Counts); n != 1024 {
			t.Errorf("%s: shots 0 without an observable sampled %d, want 1024", name, n)
		}
		if n := sum(run(core.RunOptions{Shots: 64}).Counts); n != 64 {
			t.Errorf("%s: shots 64 sampled %d", name, n)
		}

		batch, err := f.RunBatch(tc.c, []core.Bindings{nil, nil}, core.RunOptions{Seed: 5, Nodes: 2, ProcsPerNode: 2, Observable: obs})
		if err != nil {
			t.Fatalf("%s batch: %v", name, err)
		}
		for i, r := range batch {
			if r.Counts != nil || r.ExpVal == nil {
				t.Errorf("%s: analytic batch element %d has %d counts, ExpVal %v", name, i, sum(r.Counts), r.ExpVal)
			}
		}
	}
}
