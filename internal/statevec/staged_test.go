package statevec

import (
	"math/rand"
	"testing"

	"qfw/internal/circuit"
)

// TestStagedEquivalenceRandom is the acceptance test of the cache-blocked
// engine: staged execution agrees amplitude-for-amplitude to 1e-12 with the
// per-op fused path on random circuits from the full gate set, across tile
// sizes small enough to force many stages and remap sweeps.
func TestStagedEquivalenceRandom(t *testing.T) {
	// tileBits >= 3 so three-qubit gates (CCX, CSWAP) fit in a tile; smaller
	// tiles are a planner refusal, pinned in the circuit package tests.
	for _, tileBits := range []int{3, 4, 6} {
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(100*tileBits + trial)))
			n := tileBits + 1 + rng.Intn(4)
			if n > 10 {
				n = 10
			}
			c := randomFullGateSetCircuit(n, 50+rng.Intn(70), rng)
			plan := circuit.PlanFusion(c)
			sched, err := circuit.PlanTileStages(plan, c, tileBits)
			if err != nil {
				t.Fatalf("tileBits=%d trial=%d n=%d: planning failed: %v", tileBits, trial, n, err)
			}
			ref, _ := RunProgram(plan.Compile(c), 1, rand.New(rand.NewSource(7)))
			got, _, ok := RunStaged(c, plan, sched, 1, rand.New(rand.NewSource(7)))
			if !ok {
				t.Fatalf("tileBits=%d trial=%d n=%d: staged path refused a measurement-free circuit", tileBits, trial, n)
			}
			if d := maxAmpDiff(ref, got); d > 1e-12 {
				t.Fatalf("tileBits=%d trial=%d n=%d (%d stages): staged/fused amplitude diff %g > 1e-12",
					tileBits, trial, n, len(sched.Stages), d)
			}
			got.Release()
			ref.Release()
		}
	}
}

// TestStagedEquivalenceDeepDiagonal pins the combined-diagonal tile path —
// in-tile tables, per-tile scalars, and cross tables — on a deep QAOA-style
// circuit whose couplings deliberately straddle the tile boundary.
func TestStagedEquivalenceDeepDiagonal(t *testing.T) {
	const n, tileBits = 12, 5
	rng := rand.New(rand.NewSource(17))
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for layer := 0; layer < 4; layer++ {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b += 1 + rng.Intn(3) {
				c.RZZ(a, b, circuit.Bound(rng.Float64()))
			}
		}
		for q := 0; q < n; q++ {
			c.RZ(q, circuit.Bound(rng.Float64()))
			c.RX(q, circuit.Bound(rng.Float64()))
		}
	}
	plan := circuit.PlanFusion(c)
	sched, err := circuit.PlanTileStages(plan, c, tileBits)
	if err != nil {
		t.Fatalf("planning failed: %v", err)
	}
	ref, _ := RunProgram(plan.Compile(c), 1, rand.New(rand.NewSource(7)))
	got, _, ok := RunStaged(c, plan, sched, 1, rand.New(rand.NewSource(7)))
	if !ok {
		t.Fatal("staged path refused the circuit")
	}
	if d := maxAmpDiff(ref, got); d > 1e-12 {
		t.Fatalf("deep diagonal staged diff %g > 1e-12 (%d stages)", d, len(sched.Stages))
	}
	got.Release()
	ref.Release()
}

// TestStagedWorkersMatchSerial runs the staged engine chunked and checks
// agreement with its serial run (tile loop, remap sweeps, and final
// interleave all go through the worker pool).
func TestStagedWorkersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomFullGateSetCircuit(13, 140, rng)
	plan := circuit.PlanFusion(c)
	sched, err := circuit.PlanTileStages(plan, c, 6)
	if err != nil {
		t.Fatalf("planning failed: %v", err)
	}
	serial, _, ok1 := RunStaged(c, plan, sched, 1, rand.New(rand.NewSource(1)))
	parallel, _, ok2 := RunStaged(c, plan, sched, 8, rand.New(rand.NewSource(1)))
	if !ok1 || !ok2 {
		t.Fatal("staged path refused the circuit")
	}
	if d := maxAmpDiff(serial, parallel); d > 1e-12 {
		t.Fatalf("chunked staged execution diverges from serial: %g", d)
	}
	serial.Release()
	parallel.Release()
}

// TestStagedRefusesMidCircuitMeasurement: collapse needs the per-op path;
// the staged engine must refuse (not mis-execute) and RunFusedStaged must
// fall back transparently.
func TestStagedRefusesMidCircuitMeasurement(t *testing.T) {
	c := circuit.New(4)
	c.H(0).CX(0, 1)
	c.Measure(1, 1)
	c.CX(1, 2).H(3)
	plan := circuit.PlanFusion(c)
	sched, err := circuit.PlanTileStages(plan, c, 2)
	if err != nil {
		t.Fatalf("planning failed: %v", err)
	}
	if _, _, ok := RunStaged(c, plan, sched, 1, rand.New(rand.NewSource(1))); ok {
		t.Fatal("staged path accepted a mid-circuit measurement")
	}
	// The wrapper falls back to per-op execution and still collapses.
	s, cbits := RunFusedStaged(c, plan, sched, 1, rand.New(rand.NewSource(1)))
	if s.N != 4 || len(cbits) != 4 {
		t.Fatalf("fallback execution malformed: n=%d cbits=%d", s.N, len(cbits))
	}
	s.Release()
}

// TestRunFusedStagedNilSched: a nil schedule (the cache's untileable
// marker) runs the per-op path and matches it exactly.
func TestRunFusedStagedNilSched(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := randomFullGateSetCircuit(6, 60, rng)
	plan := circuit.PlanFusion(c)
	ref, _ := RunProgram(plan.Compile(c), 1, rand.New(rand.NewSource(2)))
	got, _ := RunFusedStaged(c, plan, nil, 1, rand.New(rand.NewSource(2)))
	if d := maxAmpDiff(ref, got); d > 1e-12 {
		t.Fatalf("nil-sched path diverges from per-op: %g", d)
	}
	ref.Release()
	got.Release()
}

// TestCompileSeqMatchesPlan pins the staged compiler contract: one op per
// planned segment, so stage op indices address segments directly, and the
// sequential program executes identically to the paired one.
func TestCompileSeqMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := randomFullGateSetCircuit(7, 80, rng)
	plan := circuit.PlanFusion(c)
	seq := plan.CompileSeq(c)
	ref, _ := RunProgram(plan.Compile(c), 1, rand.New(rand.NewSource(3)))
	got, _ := RunProgram(seq, 1, rand.New(rand.NewSource(3)))
	if d := maxAmpDiff(ref, got); d > 1e-12 {
		t.Fatalf("CompileSeq program diverges from Compile: %g", d)
	}
	ref.Release()
	got.Release()
}
