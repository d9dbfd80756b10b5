package backends

import (
	"fmt"
	"strings"
	"testing"

	"qfw/internal/core"
	"qfw/internal/trace"
)

// TestObservableOutsideCircuitRejected: an observable naming a qubit the
// circuit does not have used to be engine-dependent — read as |0⟩ by the
// dense engines, truncated away or a panic (retried as transient) on MPS.
// Every executor now rejects it with the same text — the whole error, not
// just the stem — on its first attempt, before any engine runs.
func TestObservableOutsideCircuitRejected(t *testing.T) {
	s := launch(t)
	observables := map[string]*core.Observable{
		"field":         {Fields: []float64{0, 0, 0, 0, 0, 3}},
		"coupling-high": {Fields: make([]float64, 4), Couplings: []core.Coupling{{I: 1, J: 9, V: 1}}},
		"coupling-neg":  {Fields: make([]float64, 4), Couplings: []core.Coupling{{I: -1, J: 2, V: 1}}},
		"pauli-long":    {Paulis: []core.PauliTerm{{Coeff: 1, Ops: "ZZIIZ"}}},
		"pauli-char":    {Paulis: []core.PauliTerm{{Coeff: 1, Ops: "ZQ"}}},
	}
	backends := []core.Properties{
		{Backend: "aer", Subbackend: "statevector"},
		{Backend: "aer", Subbackend: "matrix_product_state"},
		{Backend: "aer", Subbackend: "stabilizer"},
		{Backend: "nwqsim", Subbackend: "openmp"},
		{Backend: "nwqsim", Subbackend: "mpi"},
		{Backend: "qtensor", Subbackend: "numpy"},
		{Backend: "tnqvm", Subbackend: "exatn-mps"},
		{Backend: "ionq", Subbackend: "simulator"},
	}
	retries := func(backend string) int64 {
		return s.Rec.Metrics().Counter(trace.LabeledName("qfw_qpm_retries_total", "backend", backend)).Value()
	}
	texts := map[string]string{} // observable + entry point -> the one error text
	check := func(props core.Properties, name, entry string, err error) {
		t.Helper()
		label := fmt.Sprintf("%s/%s %s %s", props.Backend, props.Subbackend, name, entry)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", label)
		case !strings.Contains(err.Error(), "observable does not fit the "):
			t.Errorf("%s: %v", label, err)
		case strings.Contains(err.Error(), "panic"):
			t.Errorf("%s: rejected by a panic: %v", label, err)
		default:
			if want, seen := texts[name+entry]; !seen {
				texts[name+entry] = err.Error()
			} else if err.Error() != want {
				t.Errorf("%s: %q, other backends say %q", label, err, want)
			}
		}
		if got := retries(props.Backend); got != 0 {
			t.Fatalf("%s: %d retries, want the first attempt to be final", label, got)
		}
	}
	for _, props := range backends {
		f, err := s.Frontend(props)
		if err != nil {
			t.Fatal(err)
		}
		for name, obs := range observables {
			opts := core.RunOptions{Shots: 32, Seed: 3, Nodes: 2, ProcsPerNode: 2, Observable: obs}
			_, err := f.Run(ghz(4), opts)
			check(props, name, "run", err)
			_, err = f.RunBatch(ghz(4), []core.Bindings{{}, {}}, opts)
			check(props, name, "batch", err)
			if f.SupportsGradients() && props.Subbackend != "matrix_product_state" && props.Subbackend != "stabilizer" {
				_, err = f.RunGradient(gradAnsatz(), []core.Bindings{{"g": 0.3, "b": 0.2}}, core.RunOptions{Seed: 3, Observable: obs})
				check(props, name, "grad", err)
			}
		}
	}
}
