package statevec

import (
	"fmt"
	"math/rand"

	"qfw/internal/circuit"
)

// ApplyFusedOp dispatches one fused operation onto the state. Passthrough
// ops (measurement, reset, gates too wide to fuse) fall back to ApplyGate.
func (s *State) ApplyFusedOp(op *circuit.FusedOp, rng *rand.Rand, cbits []int) {
	switch op.Kind {
	case circuit.FusedGate:
		s.ApplyGate(*op.Gate, rng, cbits)
	case circuit.FusedDense1Q:
		s.Apply1Q(op.M1, op.Qubits[0])
	case circuit.FusedDiag1Q:
		s.ApplyDiag1Q(op.M1[0][0], op.M1[1][1], op.Qubits[0])
	case circuit.FusedPerm1Q:
		s.ApplyPerm1Q(op.M1[0][1], op.M1[1][0], op.Qubits[0])
	case circuit.FusedHadamard:
		s.ApplyH(op.Qubits[0])
	case circuit.FusedReal1Q:
		s.ApplyReal1Q(real(op.M1[0][0]), real(op.M1[0][1]), real(op.M1[1][0]), real(op.M1[1][1]), op.Qubits[0])
	case circuit.FusedRXLike:
		s.ApplyRXLike(real(op.M1[0][0]), imag(op.M1[0][1]), imag(op.M1[1][0]), real(op.M1[1][1]), op.Qubits[0])
	case circuit.FusedRXPair:
		s.ApplyRXPair(op.RXA, op.RXB, op.Qubits[0], op.Qubits[1])
	case circuit.FusedDense2Q:
		s.Apply2QDense(op.M, op.Qubits[0], op.Qubits[1])
	case circuit.FusedPerm2Q:
		s.ApplyPerm2Q(op.Perm, op.Phase, op.Qubits[0], op.Qubits[1])
	case circuit.FusedDenseKQ:
		s.ApplyUnitary(op.M, op.Qubits)
	case circuit.FusedDiagonal:
		s.ApplyDiagTerms(op.D1, op.D2)
	default:
		panic(fmt.Sprintf("statevec: unknown fused op kind %d", op.Kind))
	}
}

// RunProgram executes a compiled fused program on a fresh |0..0> state.
func RunProgram(prog *circuit.FusedProgram, workers int, rng *rand.Rand) (*State, []int) {
	s := NewState(prog.NQubits)
	if workers > 1 {
		s.Workers = workers
	}
	cbits := make([]int, prog.NQubits)
	for i := range prog.Ops {
		s.ApplyFusedOp(&prog.Ops[i], rng, cbits)
	}
	return s, cbits
}

// RunFused executes a bound circuit through the gate-fusion engine. A nil
// plan is built on the spot (planning is O(gates), negligible next to the
// kernels); batch callers pass the plan cached per ansatz so the whole batch
// fuses once. The plan must have been built from a circuit with the same
// structure as c (e.g. the unbound ansatz c was bound from).
//
// Above the MinQubits threshold the circuit runs on the cache-blocked
// staged engine (blocked.go): the fused program partitioned into
// tile-resident stages, amplitudes touched once per stage instead of once
// per op. The per-op path remains the fallback for programs the staged
// engine refuses (mid-circuit measurement) and for small states.
func RunFused(c *circuit.Circuit, plan *circuit.FusionPlan, workers int, rng *rand.Rand) (*State, []int) {
	if !c.IsBound() {
		panic("statevec: circuit has unbound parameters")
	}
	if plan == nil {
		plan = circuit.PlanFusion(c)
	}
	if tun := CurrentTuning(); c.NQubits >= tun.MinQubits {
		if sched, err := circuit.PlanTileStages(plan, c, tun.TileBitsFor(c.NQubits)); err == nil {
			if s, cbits, ok := RunStaged(c, plan, sched, workers, rng); ok {
				return s, cbits
			}
		}
	}
	return RunProgram(plan.Compile(c), workers, rng)
}

// RunFusedStaged is the batch-path entry of the staged engine: sched is the
// tile schedule cached beside the fusion plan (core.ParseCache.GetStaged),
// so a batch of bindings compiles its stages once. A nil sched — the cache's
// way of saying the structure is untileable or below the MinQubits threshold —
// runs the per-op fused path directly.
func RunFusedStaged(c *circuit.Circuit, plan *circuit.FusionPlan, sched *circuit.DistSchedule, workers int, rng *rand.Rand) (*State, []int) {
	if !c.IsBound() {
		panic("statevec: circuit has unbound parameters")
	}
	if plan == nil {
		plan = circuit.PlanFusion(c)
	}
	if sched != nil {
		if s, cbits, ok := RunStaged(c, plan, sched, workers, rng); ok {
			return s, cbits
		}
	}
	return RunProgram(plan.Compile(c), workers, rng)
}
