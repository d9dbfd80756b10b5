package backends

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/diag_golden.txt from this tree's results")

// TestDiagonalObservableBitsGolden pins ExpVal, GradResult.Value/.Grad and
// the seeded counts of diagonal-observable requests to the float64 bit
// patterns recorded at 743724b, before observables were compiled to a
// table: the closure walk and the table must agree to the last bit on every
// executor that evaluates a diagonal, and on the local qaoa runner. qtensor
// contracts in its own order, so its ExpVal bits are its own: they are
// pinned like the others and also held to 1e-12 of aer's.
func TestDiagonalObservableBitsGolden(t *testing.T) {
	s := launch(t)
	const n = 8
	q := qubo.Random(n, 1, 1, rand.New(rand.NewSource(3)))
	h, _ := q.CostHamiltonian()
	ansatz := qaoa.BuildAnsatz(h, 2)
	rng := rand.New(rand.NewSource(5))
	bindings := make([]core.Bindings, 3)
	for i := range bindings {
		bindings[i] = qaoa.BindParams([]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()})
	}
	observables := map[string]*core.Observable{
		"qubo": qaoa.ObservableFromQUBO(q),
		// Touches qubits 0..4 only: the table is narrower than the state.
		"narrow": {
			Fields:    []float64{0.5, 0, -1.25},
			Couplings: []core.Coupling{{I: 0, J: 3, V: 0.75}, {I: 2, J: 2, V: 0.1}},
			Paulis:    []core.PauliTerm{{Coeff: -0.3, Ops: "ZIZIZ"}, {Coeff: 2, Ops: "II"}},
		},
	}

	var got []string
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	digest := func(counts map[string]int) string {
		data, _ := json.Marshal(counts) // map keys marshal sorted
		return fmt.Sprintf("%x", sha256.Sum256(data))[:16]
	}
	exact := map[string]float64{} // aer's ExpVal per (observable, request)
	record := func(backend, request string, res *core.Result) {
		if res.ExpVal == nil {
			t.Fatalf("%s %s: no expectation value", backend, request)
		}
		ev := bits(*res.ExpVal)
		switch {
		case backend == "aer/statevector":
			exact[request] = *res.ExpVal
		case strings.HasPrefix(backend, "qtensor"):
			if math.Abs(*res.ExpVal-exact[request]) > 1e-12 {
				t.Errorf("%s %s: <H> = %v, aer has %v", backend, request, *res.ExpVal, exact[request])
			}
		}
		got = append(got, fmt.Sprintf("%s %s expval=%s counts=%s", backend, request, ev, digest(res.Counts)))
	}
	recordGrad := func(label string, grads []core.GradResult) {
		for i, g := range grads {
			line := fmt.Sprintf("%s[%d] value=%s grad=", label, i, bits(g.Value))
			for _, d := range g.Grad {
				line += bits(d) + ","
			}
			got = append(got, line)
		}
	}

	type runner interface {
		Run(*circuit.Circuit, core.RunOptions) (*core.Result, error)
		RunBatch(*circuit.Circuit, []core.Bindings, core.RunOptions) ([]*core.Result, error)
		RunGradient(*circuit.Circuit, []core.Bindings, core.RunOptions) ([]core.GradResult, error)
	}
	cases := []struct {
		name  string
		props core.Properties // zero value: the local qaoa runner
		grad  bool
	}{
		{"aer/statevector", core.Properties{Backend: "aer", Subbackend: "statevector"}, true},
		{"nwqsim/openmp", core.Properties{Backend: "nwqsim", Subbackend: "openmp"}, true},
		{"nwqsim/mpi", core.Properties{Backend: "nwqsim", Subbackend: "mpi"}, false},
		{"qtensor/numpy", core.Properties{Backend: "qtensor", Subbackend: "numpy"}, false},
		{"qtensor/mpi", core.Properties{Backend: "qtensor", Subbackend: "mpi"}, false},
		{"qaoa/local", core.Properties{}, true},
	}
	for _, tc := range cases {
		var r runner = qaoa.LocalRunner{Workers: 2}
		if tc.props.Backend != "" {
			f, err := s.Frontend(tc.props)
			if err != nil {
				t.Fatal(err)
			}
			r = f
		}
		for _, obsName := range []string{"qubo", "narrow"} {
			label := tc.name + " " + obsName
			opts := core.RunOptions{Shots: 64, Seed: 11, Nodes: 2, ProcsPerNode: 2, Observable: observables[obsName]}
			res, err := r.Run(ansatz.Bind(bindings[0]), opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			record(tc.name, obsName+" run", res)
			batch, err := r.RunBatch(ansatz, bindings, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, res := range batch {
				record(tc.name, fmt.Sprintf("%s batch[%d]", obsName, i), res)
			}
			if tc.grad {
				grads, err := r.RunGradient(ansatz, bindings, core.RunOptions{Seed: 11, Observable: observables[obsName]})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				recordGrad(label+" grad", grads)
			}
		}
	}

	const path = "testdata/diag_golden.txt"
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d result lines, golden file has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("bits differ from the golden record:\n got  %s\n want %s", got[i], wantLines[i])
		}
	}
}
