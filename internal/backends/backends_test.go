package backends

import (
	"math"
	"strings"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/core"
)

// launch boots a small full stack with every backend registered.
func launch(t *testing.T) *core.Session {
	t.Helper()
	s, err := core.Launch(core.Config{
		Machine:      cluster.Frontier(3),
		AppNodes:     1,
		QFwNodes:     2,
		Workers:      4,
		CloudLatency: 2 * time.Millisecond,
		CloudJitter:  time.Millisecond,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Teardown)
	return s
}

// localOf unwraps the local executor behind a record's factory result,
// with or without gradients.
func localOf(e core.Executor) *local {
	if g, ok := e.(gradLocal); ok {
		return g.local
	}
	return e.(*local)
}

func ghz(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for i := 0; i+1 < n; i++ {
		c.CX(i, i+1)
	}
	c.MeasureAll()
	c.Name = "ghz"
	return c
}

func TestAllBackendsRegistered(t *testing.T) {
	names := core.RegisteredBackends()
	want := []string{"aer", "ionq", "nwqsim", "qtensor", "tnqvm"}
	if len(names) != len(want) {
		t.Fatalf("registered %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
}

// checkGHZ asserts that counts look like a GHZ distribution.
func checkGHZ(t *testing.T, counts map[string]int, n, shots int) {
	t.Helper()
	zero := strings.Repeat("0", n)
	one := strings.Repeat("1", n)
	total := 0
	for key, c := range counts {
		if key != zero && key != one {
			t.Fatalf("non-GHZ outcome %q x%d", key, c)
		}
		total += c
	}
	if total != shots {
		t.Fatalf("total %d, want %d", total, shots)
	}
	if frac := float64(counts[zero]) / float64(shots); math.Abs(frac-0.5) > 0.12 {
		t.Fatalf("skewed GHZ: %v", counts)
	}
}

func TestSameCodeAllBackends(t *testing.T) {
	// The paper's headline capability: identical application code across all
	// backends, swapping only the properties.
	s := launch(t)
	cases := []core.Properties{
		{Backend: "nwqsim", Subbackend: "MPI"},
		{Backend: "nwqsim", Subbackend: "OpenMP"},
		{Backend: "nwqsim", Subbackend: "CPU"},
		{Backend: "aer", Subbackend: "statevector"},
		{Backend: "aer", Subbackend: "matrix_product_state"},
		{Backend: "aer", Subbackend: "stabilizer"},
		{Backend: "aer", Subbackend: "automatic"},
		{Backend: "tnqvm", Subbackend: "exatn-mps"},
		{Backend: "qtensor", Subbackend: "numpy"},
		{Backend: "qtensor", Subbackend: "mpi"},
		{Backend: "ionq", Subbackend: "simulator"},
	}
	c := ghz(6)
	for _, props := range cases {
		props := props
		t.Run(props.Backend+"/"+props.Subbackend, func(t *testing.T) {
			f, err := s.Frontend(props)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(c, core.RunOptions{Shots: 600, Seed: 42, Nodes: 2, ProcsPerNode: 2})
			if err != nil {
				t.Fatal(err)
			}
			checkGHZ(t, res.Counts, 6, 600)
			if res.Backend != props.Backend {
				t.Fatalf("result backend %q", res.Backend)
			}
			if res.Timings.TotalMS <= 0 {
				t.Fatalf("missing timing: %+v", res.Timings)
			}
		})
	}
}

func TestPendingAndPlannedSubbackends(t *testing.T) {
	s := launch(t)
	cases := []struct {
		props core.Properties
		want  string
	}{
		{core.Properties{Backend: "tnqvm", Subbackend: "ttn"}, "pending"},
		{core.Properties{Backend: "tnqvm", Subbackend: "peps"}, "planned"},
		{core.Properties{Backend: "qtensor", Subbackend: "cupy"}, "planned"},
		{core.Properties{Backend: "qtensor", Subbackend: "pytorch"}, "planned"},
		{core.Properties{Backend: "ionq", Subbackend: "hardware"}, "planned"},
	}
	c := ghz(3)
	for _, tc := range cases {
		f, err := s.Frontend(tc.props)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Run(c, core.RunOptions{Shots: 10})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s/%s: err = %v, want %q", tc.props.Backend, tc.props.Subbackend, err, tc.want)
		}
	}
}

func TestMemoryBudgetInfeasible(t *testing.T) {
	s, err := core.Launch(core.Config{
		Machine:        cluster.Frontier(2),
		Backends:       []string{"nwqsim", "aer"},
		MemBudgetBytes: 16 << 10, // 16 KiB: allows 10 qubits, rejects 12
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Teardown()
	f, err := s.Frontend(core.Properties{Backend: "nwqsim", Subbackend: "CPU"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(ghz(12), core.RunOptions{Shots: 10}); !core.IsInfeasible(err) {
		t.Fatalf("expected infeasible, got %v", err)
	}
	if _, err := f.Run(ghz(8), core.RunOptions{Shots: 10}); err != nil {
		t.Fatalf("8 qubits should fit: %v", err)
	}
	// Aer MPS must still work beyond the dense budget.
	fm, err := s.Frontend(core.Properties{Backend: "aer", Subbackend: "matrix_product_state"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Run(ghz(16), core.RunOptions{Shots: 10}); err != nil {
		t.Fatalf("MPS should not hit the dense budget: %v", err)
	}
}

func TestAerAutomaticSelection(t *testing.T) {
	env := &core.Env{MemBudgetBytes: 1 << 30}
	b, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	a := localOf(b)
	// Clifford -> stabilizer.
	cl := circuit.New(4)
	cl.H(0).CX(0, 1).CX(1, 2).CX(2, 3)
	if got := a.selectAutomatic(cl); got != "stabilizer" {
		t.Fatalf("clifford got %q", got)
	}
	// Large nearest-neighbour non-Clifford -> MPS.
	nn := circuit.New(16)
	for i := 0; i+1 < 16; i++ {
		nn.RZZ(i, i+1, circuit.Bound(0.3))
		nn.RX(i, circuit.Bound(0.1))
	}
	if got := a.selectAutomatic(nn); got != "matrix_product_state" {
		t.Fatalf("nn got %q", got)
	}
	// Small dense non-Clifford -> statevector.
	sv := circuit.New(5)
	sv.T(0).CX(0, 4).RZZ(1, 3, circuit.Bound(0.2))
	if got := a.selectAutomatic(sv); got != "statevector" {
		t.Fatalf("dense got %q", got)
	}
}

func TestUnknownSubbackendErrors(t *testing.T) {
	s := launch(t)
	for _, backend := range []string{"nwqsim", "aer", "tnqvm", "qtensor", "ionq"} {
		f, err := s.Frontend(core.Properties{Backend: backend, Subbackend: "bogus"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(ghz(3), core.RunOptions{Shots: 8}); err == nil {
			t.Fatalf("%s accepted bogus sub-backend", backend)
		}
	}
}

func TestCapabilitiesTable(t *testing.T) {
	s := launch(t)
	for _, backend := range s.Backends() {
		f, err := s.Frontend(core.Properties{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		caps, err := f.Capabilities()
		if err != nil {
			t.Fatal(err)
		}
		if caps.Backend != backend || len(caps.Subbackends) == 0 {
			t.Fatalf("caps %+v", caps)
		}
	}
}

func TestStabilizerRejectsNonClifford(t *testing.T) {
	s := launch(t)
	f, err := s.Frontend(core.Properties{Backend: "aer", Subbackend: "stabilizer"})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(2)
	c.T(0).MeasureAll()
	if _, err := f.Run(c, core.RunOptions{Shots: 8}); err == nil {
		t.Fatal("stabilizer accepted a T gate")
	}
}

// TestStabilizerExpValByQubit: the stabilizer engine evaluates ⟨H⟩ on
// qubits, exactly, as the dense engine does, whichever classical bits the
// circuit measures them into. Read off the histogram by classical bit, this
// circuit's swapped measures turn −0.75 into +0.25.
func TestStabilizerExpValByQubit(t *testing.T) {
	s := launch(t)
	c := circuit.New(2)
	c.X(0).Measure(0, 1).Measure(1, 0)
	obs := &core.Observable{Fields: []float64{1, 0.5}, Couplings: []core.Coupling{{I: 0, J: 1, V: 0.25}}}
	const want = -1 + 0.5 - 0.25
	for _, sub := range []string{"stabilizer", "statevector"} {
		f, err := s.Frontend(core.Properties{Backend: "aer", Subbackend: sub})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(c, core.RunOptions{Shots: 64, Observable: obs})
		if err != nil {
			t.Fatal(err)
		}
		if res.ExpVal == nil {
			t.Fatalf("aer/%s: no ⟨H⟩", sub)
		}
		if got := *res.ExpVal; math.Abs(got-want) > 1e-12 {
			t.Fatalf("aer/%s: ⟨H⟩ = %g, want %g", sub, got, want)
		}
		if sub == "stabilizer" && res.Counts["10"] != 64 {
			t.Fatalf("aer/%s: counts %v, want all \"10\" (keyed by classical bit)", sub, res.Counts)
		}
	}
}

func TestUnregisteredBackendRejectedAtLaunch(t *testing.T) {
	_, err := core.Launch(core.Config{
		Machine:  cluster.Frontier(2),
		Backends: []string{"does-not-exist"},
	})
	if err == nil {
		t.Fatal("expected launch failure")
	}
}
