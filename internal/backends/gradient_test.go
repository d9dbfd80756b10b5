package backends

import (
	"math"
	"strings"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
)

// gradAnsatz is a small symbolic circuit with a shared parameter.
func gradAnsatz() *circuit.Circuit {
	c := circuit.New(3)
	c.Name = "grad-ansatz"
	for q := 0; q < 3; q++ {
		c.H(q)
	}
	c.RZZ(0, 1, circuit.Sym("g", 2)).RZZ(1, 2, circuit.Sym("g", 2))
	for q := 0; q < 3; q++ {
		c.RX(q, circuit.Sym("b", 2))
	}
	c.MeasureAll()
	return c
}

var gradTestObs = &core.Observable{
	Fields:    []float64{0.4, -0.3, 0.2},
	Couplings: []core.Coupling{{I: 0, J: 1, V: 0.7}, {I: 1, J: 2, V: -0.5}},
}

// frontGradValue evaluates the observable at a binding through an ordinary
// run, for finite-difference checks.
func frontGradValue(t *testing.T, f *core.Frontend, b core.Bindings) float64 {
	t.Helper()
	bound := gradAnsatz().Bind(b)
	res, err := f.Run(bound, core.RunOptions{Shots: 16, Seed: 5, Observable: gradTestObs})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpVal == nil {
		t.Fatal("no expectation value")
	}
	return *res.ExpVal
}

// TestFrontendGradientEndToEnd drives RunGradient through the full stack
// (frontend → DEFw RPC → QPM → gradient executor → adjoint engine) on every
// gradient-capable backend selection and checks values and gradients
// against finite differences of the ordinary execution path.
func TestFrontendGradientEndToEnd(t *testing.T) {
	s := launch(t)
	bindings := []core.Bindings{{"g": 0.35, "b": -0.6}, {"g": -1.1, "b": 0.2}}
	for _, props := range []core.Properties{
		{Backend: "aer", Subbackend: "statevector"},
		{Backend: "nwqsim", Subbackend: "openmp"},
		{Backend: "nwqsim", Subbackend: "mpi"},
		{Backend: "auto"},
	} {
		f, err := s.Frontend(props)
		if err != nil {
			t.Fatal(err)
		}
		if !f.SupportsGradients() {
			t.Fatalf("%s/%s: gradient capability not advertised", props.Backend, props.Subbackend)
		}
		results, err := f.RunGradient(gradAnsatz(), bindings, core.RunOptions{Seed: 5, Observable: gradTestObs})
		if err != nil {
			t.Fatalf("%s/%s: %v", props.Backend, props.Subbackend, err)
		}
		const eps = 1e-5
		for i, b := range bindings {
			if want := frontGradValue(t, f, b); math.Abs(results[i].Value-want) > 1e-9 {
				t.Fatalf("%s/%s element %d: value %.12g, want %.12g", props.Backend, props.Subbackend, i, results[i].Value, want)
			}
			// Params come back sorted: [b, g].
			for j, name := range []string{"b", "g"} {
				up := core.Bindings{"g": b["g"], "b": b["b"]}
				dn := core.Bindings{"g": b["g"], "b": b["b"]}
				up[name] += eps
				dn[name] -= eps
				fd := (frontGradValue(t, f, up) - frontGradValue(t, f, dn)) / (2 * eps)
				if math.Abs(results[i].Grad[j]-fd) > 1e-7 {
					t.Errorf("%s/%s element %d d/d%s: adjoint %.10g vs finite diff %.10g",
						props.Backend, props.Subbackend, i, name, results[i].Grad[j], fd)
				}
			}
		}
	}
}

// TestGradientCapabilityScoping checks the capability-row scoping: MPS and
// stabilizer selections must not advertise gradients, and execution against
// them fails cleanly.
func TestGradientCapabilityScoping(t *testing.T) {
	s := launch(t)
	f, err := s.Frontend(core.Properties{Backend: "aer", Subbackend: "matrix_product_state"})
	if err != nil {
		t.Fatal(err)
	}
	if f.SupportsGradients() {
		t.Fatal("aer/mps must not advertise gradients")
	}
	_, err = f.RunGradient(gradAnsatz(), []core.Bindings{{"g": 1, "b": 1}},
		core.RunOptions{Subbackend: "matrix_product_state", Observable: gradTestObs})
	if err == nil || !strings.Contains(err.Error(), "statevector") {
		t.Fatalf("expected statevector-only error, got %v", err)
	}
	for _, backend := range []string{"ionq", "qtensor", "tnqvm"} {
		f, err := s.Frontend(core.Properties{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if f.SupportsGradients() {
			t.Fatalf("%s must not advertise gradients", backend)
		}
	}
}

// TestGradientRequiresObservable checks the missing-observable error path.
func TestGradientRequiresObservable(t *testing.T) {
	s := launch(t)
	f, err := s.Frontend(core.Properties{Backend: "aer", Subbackend: "statevector"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunGradient(gradAnsatz(), []core.Bindings{{"g": 1, "b": 1}}, core.RunOptions{}); err == nil {
		t.Fatal("expected observable-required error")
	}
}

// TestGradientPlansOncePerBatch asserts the spec-hash cache builds one
// gradient plan for a whole batch.
func TestGradientPlansOncePerBatch(t *testing.T) {
	env := testEnv(t)
	exec, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	b := exec.(core.GradientExecutor)
	spec, err := core.SpecFromParametric(gradAnsatz())
	if err != nil {
		t.Fatal(err)
	}
	bindings := make([]core.Bindings, 6)
	for i := range bindings {
		bindings[i] = core.Bindings{"g": float64(i) * 0.2, "b": -0.4}
	}
	if _, err := b.ExecuteGradient(spec, bindings, core.RunOptions{Observable: gradTestObs}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExecuteGradient(spec, bindings, core.RunOptions{Observable: gradTestObs}); err != nil {
		t.Fatal(err)
	}
	if got := localOf(exec).cache.Grads(); got != 1 {
		t.Fatalf("gradient plans built %d, want 1 per ansatz", got)
	}
}
