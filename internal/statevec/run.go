package statevec

import (
	"fmt"
	"math/rand"

	"qfw/internal/circuit"
)

// ApplyGate dispatches one bound circuit gate onto the state. Measurement
// gates collapse the state and record the outcome in cbits (which must have
// room for the classical index).
func (s *State) ApplyGate(g circuit.Gate, rng *rand.Rand, cbits []int) {
	switch g.Kind {
	case circuit.KindBarrier, circuit.KindI:
		return
	case circuit.KindMeasure:
		out := s.MeasureQubit(g.Qubits[0], rng)
		if g.Cbit >= 0 && g.Cbit < len(cbits) {
			cbits[g.Cbit] = out
		}
		return
	case circuit.KindReset:
		if s.MeasureQubit(g.Qubits[0], rng) == 1 {
			s.Apply1Q(circuit.Matrix1Q(circuit.KindX, 0), g.Qubits[0])
		}
		return
	case circuit.KindUnitary:
		if len(g.Qubits) == 1 {
			m := g.Matrix
			s.Apply1Q([2][2]complex128{{m.At(0, 0), m.At(0, 1)}, {m.At(1, 0), m.At(1, 1)}}, g.Qubits[0])
			return
		}
		s.ApplyUnitary(g.Matrix, g.Qubits)
		return
	case circuit.KindSWAP:
		s.ApplySwap(g.Qubits[0], g.Qubits[1], nil)
		return
	case circuit.KindCSWAP:
		s.ApplySwap(g.Qubits[1], g.Qubits[2], g.Qubits[:1])
		return
	case circuit.KindRZZ:
		s.ApplyRZZ(g.Qubits[0], g.Qubits[1], g.Angle())
		return
	case circuit.KindRXX:
		s.Apply2QDense(circuit.Matrix2Q(circuit.KindRXX, g.Angle()), g.Qubits[0], g.Qubits[1])
		return
	case circuit.KindCCX:
		s.ApplyControlled1Q(circuit.Matrix1Q(circuit.KindX, 0), g.Qubits[:2], g.Qubits[2])
		return
	}
	// Single-qubit and singly-controlled single-qubit gates.
	var theta float64
	if g.Kind.NumParams() == 1 {
		theta = g.Angle()
	}
	if m, ok := circuit.ControlledTarget(g.Kind, theta); ok && g.Kind.NumQubits() == 2 {
		s.ApplyControlled1Q(m, g.Qubits[:1], g.Qubits[1])
		return
	}
	if g.Kind.NumQubits() == 1 {
		s.Apply1Q(circuit.Matrix1Q(g.Kind, theta), g.Qubits[0])
		return
	}
	panic(fmt.Sprintf("statevec: unhandled gate %s", g.Kind.Name()))
}

// RunCircuit executes a bound circuit on a fresh |0..0> state. Measurements
// collapse; the final classical bits are returned alongside the state.
func RunCircuit(c *circuit.Circuit, workers int, rng *rand.Rand) (*State, []int) {
	if !c.IsBound() {
		panic("statevec: circuit has unbound parameters")
	}
	s := NewState(c.NQubits)
	if workers > 1 {
		s.Workers = workers
	}
	cbits := make([]int, c.NQubits)
	for _, g := range c.Gates {
		s.ApplyGate(g, rng, cbits)
	}
	return s, cbits
}

// Simulate runs the circuit ignoring terminal measurements and samples the
// requested number of shots from the final distribution. This is the
// standard execution path used by the backends: terminal measurement is
// replaced by sampling, which is exact and far cheaper than per-shot
// collapse. Execution goes through the gate-fusion engine; RunCircuit
// remains the unfused reference path.
func Simulate(c *circuit.Circuit, shots, workers int, rng *rand.Rand) map[string]int {
	if workers <= 0 {
		workers = CurrentTuning().Workers
	}
	s, _ := RunFused(c.StripMeasurements(), nil, workers, rng)
	counts := s.SampleCounts(shots, rng)
	s.Release()
	return counts
}
