package qfw

import (
	"strings"
	"testing"
	"time"
)

// launchTest boots a small session on the Frontier model.
func launchTest(t *testing.T) *Session {
	t.Helper()
	s, err := Launch(Config{
		Machine:      Frontier(3),
		CloudLatency: time.Millisecond,
		CloudJitter:  time.Millisecond,
		Seed:         11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Teardown)
	return s
}

func TestPublicAPIQuickstart(t *testing.T) {
	s := launchTest(t)
	backend, err := s.Frontend(Properties{Backend: "aer", Subbackend: "automatic"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := backend.Run(GHZ(6), RunOptions{Shots: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for key, n := range res.Counts {
		if key != "000000" && key != "111111" {
			t.Fatalf("GHZ outcome %q", key)
		}
		total += n
	}
	if total != 512 {
		t.Fatalf("total %d", total)
	}
}

func TestPublicAPIBackendList(t *testing.T) {
	names := RegisteredBackends()
	if len(names) != 5 {
		t.Fatalf("backends %v", names)
	}
	// A live session additionally serves the workload-driven "auto" selector.
	s := launchTest(t)
	got := s.Backends()
	if len(got) != 6 || got[1] != "auto" {
		t.Fatalf("session backends %v", got)
	}
}

func TestAutoBackendRouting(t *testing.T) {
	s := launchTest(t)
	backend, err := s.Frontend(Properties{Backend: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	// Clifford GHZ must route to the stabilizer engine.
	res, err := backend.Run(GHZ(8), RunOptions{Shots: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Route, "aer/stabilizer") {
		t.Fatalf("GHZ routed to %q, want aer/stabilizer", res.Route)
	}
	// Nearest-neighbour TFIM at width >= 12 must route to MPS.
	res, err = backend.Run(TFIM(14, 4, 0.5, 1), RunOptions{Shots: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Route, "matrix_product_state") {
		t.Fatalf("TFIM routed to %q, want matrix_product_state", res.Route)
	}
	// HHL (dense controlled rotations, small) must route to a state vector.
	res, err = backend.Run(HHL(7), RunOptions{Shots: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Route, "statevector") && !strings.Contains(res.Route, "nwqsim") {
		t.Fatalf("HHL routed to %q", res.Route)
	}
}

func TestExactExpectationPath(t *testing.T) {
	s := launchTest(t)
	q := RandomQUBO(6, 0.6, 1, 8)
	for _, props := range []Properties{
		{Backend: "aer", Subbackend: "statevector"},
		{Backend: "aer", Subbackend: "matrix_product_state"},
		{Backend: "nwqsim", Subbackend: "MPI"},
	} {
		backend, err := s.Frontend(props)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveQAOA(q, backend, QAOAOptions{
			P: 1, Shots: 128, MaxEvals: 15, Seed: 4, ExactExpectation: true,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", props.Backend, props.Subbackend, err)
		}
		if len(res.Bits) != 6 {
			t.Fatalf("%s/%s: bits %v", props.Backend, props.Subbackend, res.Bits)
		}
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	if GHZ(8).NQubits != 8 {
		t.Fatal("GHZ width")
	}
	if HamSim(6, 2).NQubits != 6 {
		t.Fatal("HamSim width")
	}
	if TFIM(6, 3, 0.5, 1).NQubits != 6 {
		t.Fatal("TFIM width")
	}
	if HHL(7).NQubits != 7 {
		t.Fatal("HHL width")
	}
}

func TestPublicAPICircuitBuilding(t *testing.T) {
	c := NewCircuit(2)
	c.H(0).CX(0, 1).RZ(1, Sym("g", 2)).MeasureAll()
	if c.IsBound() {
		t.Fatal("should have symbolic param")
	}
	b := c.Bind(map[string]float64{"g": 0.25})
	qasm, err := b.ToQASM()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseQASM(qasm)
	if err != nil {
		t.Fatal(err)
	}
	if back.NQubits != 2 {
		t.Fatal("round trip width")
	}
}

func TestPublicAPIBatch(t *testing.T) {
	// The batch path through the full stack: one parametric circuit, K
	// bindings, ordered results from a single exec_batch RPC.
	s := launchTest(t)
	backend, err := s.Frontend(Properties{Backend: "aer", Subbackend: "statevector"})
	if err != nil {
		t.Fatal(err)
	}
	ansatz := NewCircuit(2)
	ansatz.RY(0, Sym("theta", 1)).CX(0, 1).MeasureAll()
	bindings := []Bindings{{"theta": 0}, {"theta": 3.14159265}}
	results, err := backend.RunBatch(ansatz, bindings, RunOptions{Shots: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	// theta=0 leaves |00>; theta=pi flips to |11> — ordering is observable.
	if results[0].Counts["00"] < 390 || results[1].Counts["11"] < 390 {
		t.Fatalf("batch order broken: %v / %v", results[0].Counts, results[1].Counts)
	}
	// The async variant returns a handle first.
	pending, err := backend.RunBatchAsync(ansatz, bindings, RunOptions{Shots: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if pending.N != 2 {
		t.Fatalf("pending %+v", pending)
	}
	if results, err := pending.Results(); err != nil || len(results) != pending.N {
		t.Fatalf("async batch results %v, %v", results, err)
	}
}

func TestPublicAPIBatchAutoRouting(t *testing.T) {
	// Batches route through the workload-driven selector too: the route
	// annotation must appear on every element.
	s := launchTest(t)
	backend, err := s.Frontend(Properties{Backend: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	ansatz := NewCircuit(3)
	ansatz.H(0).RZ(1, Sym("g", 2)).CX(0, 1).MeasureAll()
	results, err := backend.RunBatch(ansatz, []Bindings{{"g": 0.2}, {"g": 0.9}}, RunOptions{Shots: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Route == "" {
			t.Fatalf("element %d missing route annotation: %+v", i, res)
		}
	}
}

func TestPublicAPIQAOA(t *testing.T) {
	s := launchTest(t)
	backend, err := s.Frontend(Properties{Backend: "aer", Subbackend: "statevector"})
	if err != nil {
		t.Fatal(err)
	}
	q := RandomQUBO(6, 0.6, 1, 3)
	res, err := SolveQAOA(q, backend, QAOAOptions{P: 1, Shots: 256, MaxEvals: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bits) != 6 {
		t.Fatalf("result %+v", res)
	}
}

func TestPublicAPIDQAOA(t *testing.T) {
	s := launchTest(t)
	backend, err := s.Frontend(Properties{Backend: "nwqsim", Subbackend: "openmp"})
	if err != nil {
		t.Fatal(err)
	}
	q := MetamaterialQUBO(14, 5)
	rec := NewRecorder()
	res, err := SolveDQAOA(q, backend, DQAOAConfig{
		SubQSize: 6, NSubQ: 3, MaxIter: 2, Seed: 6, Shots: 128, MaxEvals: 10,
		Async: true, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality <= 0 {
		t.Fatalf("quality %g", res.Quality)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder empty")
	}
	if !strings.Contains(rec.Timeline(40), "#") {
		t.Fatal("timeline empty")
	}
}

func TestPublicAPIVQLSThroughStack(t *testing.T) {
	// The variational linear solver runs through the full orchestration
	// stack using general-Pauli observables on a local simulator backend.
	s := launchTest(t)
	backend, err := s.Frontend(Properties{Backend: "aer", Subbackend: "statevector"})
	if err != nil {
		t.Fatal(err)
	}
	p := IsingVQLS(2, 0.3, 0.2, 1.0)
	res, err := SolveVQLS(p, backend, VQLSOptions{Layers: 1, MaxEvals: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 0.1 {
		t.Fatalf("VQLS cost %g did not converge through the stack", res.Cost)
	}
	// The cloud path must reject general-Pauli observables cleanly.
	cloud, err := s.Frontend(Properties{Backend: "ionq", Subbackend: "simulator"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveVQLS(p, cloud, VQLSOptions{Layers: 1, MaxEvals: 5, Seed: 2}); err == nil {
		t.Fatal("cloud backend accepted a general-Pauli observable")
	}
}

func TestMachineModels(t *testing.T) {
	if Frontier(2).TotalUsableCores() != 112 {
		t.Fatal("frontier cores")
	}
	if Laptop(1).TotalUsableCores() != 8 {
		t.Fatal("laptop cores")
	}
}
