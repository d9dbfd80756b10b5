package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/linalg"
)

// randomFullGateSetCircuit draws gates uniformly from the entire supported
// gate set (every 1q/2q/3q kind plus dense unitaries) on random qubits.
func randomFullGateSetCircuit(n, gates int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	pick := func(k int) []int {
		qs := rng.Perm(n)[:k]
		return qs
	}
	angle := func() circuit.Param { return circuit.Bound(rng.Float64()*4*math.Pi - 2*math.Pi) }
	for g := 0; g < gates; g++ {
		switch rng.Intn(28) {
		case 0:
			c.H(pick(1)[0])
		case 1:
			c.X(pick(1)[0])
		case 2:
			c.Y(pick(1)[0])
		case 3:
			c.Z(pick(1)[0])
		case 4:
			c.S(pick(1)[0])
		case 5:
			c.Sdg(pick(1)[0])
		case 6:
			c.T(pick(1)[0])
		case 7:
			c.Tdg(pick(1)[0])
		case 8:
			c.SX(pick(1)[0])
		case 9:
			c.RX(pick(1)[0], angle())
		case 10:
			c.RY(pick(1)[0], angle())
		case 11:
			c.RZ(pick(1)[0], angle())
		case 12:
			c.P(pick(1)[0], angle())
		case 13:
			qs := pick(2)
			c.CX(qs[0], qs[1])
		case 14:
			qs := pick(2)
			c.CY(qs[0], qs[1])
		case 15:
			qs := pick(2)
			c.CZ(qs[0], qs[1])
		case 16:
			qs := pick(2)
			c.CRX(qs[0], qs[1], angle())
		case 17:
			qs := pick(2)
			c.CRY(qs[0], qs[1], angle())
		case 18:
			qs := pick(2)
			c.CRZ(qs[0], qs[1], angle())
		case 19:
			qs := pick(2)
			c.CP(qs[0], qs[1], angle())
		case 20:
			qs := pick(2)
			c.SWAP(qs[0], qs[1])
		case 21:
			qs := pick(2)
			c.RZZ(qs[0], qs[1], angle())
		case 22:
			qs := pick(2)
			c.RXX(qs[0], qs[1], angle())
		case 23:
			qs := pick(3)
			c.CCX(qs[0], qs[1], qs[2])
		case 24:
			qs := pick(3)
			c.CSWAP(qs[0], qs[1], qs[2])
		case 25:
			c.Unitary(linalg.RandomUnitary(2, rng), pick(1)[0])
		case 26:
			qs := pick(2)
			c.Unitary(linalg.RandomUnitary(4, rng), qs[0], qs[1])
		case 27:
			c.I(pick(1)[0])
		}
	}
	return c
}

// maxAmpDiff returns the largest |a_i - b_i| between two states.
func maxAmpDiff(a, b *State) float64 {
	var mx float64
	for i := range a.Amp {
		if d := cmplx.Abs(a.Amp[i] - b.Amp[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// TestFusionEquivalenceRandom is the acceptance test of the fused engine:
// fused and unfused execution agree amplitude-for-amplitude to 1e-12 on
// random circuits drawn from the full gate set, across fusion widths.
func TestFusionEquivalenceRandom(t *testing.T) {
	for _, maxK := range []int{1, 2, 3, 4} {
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*maxK + trial)))
			n := 3 + rng.Intn(4) // 3..6 qubits
			if trial >= 10 {
				// Large-n cases exercise the diagonal low/high table split
				// and per-high-qubit cross tables (active only for n >= 8).
				n = 9 + rng.Intn(3)
			}
			c := randomFullGateSetCircuit(n, 40+rng.Intn(60), rng)
			ref, _ := RunCircuit(c, 1, rand.New(rand.NewSource(7)))
			plan := circuit.PlanFusionK(c, maxK)
			got, _ := RunProgram(plan.Compile(c), 1, rand.New(rand.NewSource(7)))
			if d := maxAmpDiff(ref, got); d > 1e-12 {
				t.Fatalf("maxK=%d trial=%d n=%d: fused/unfused amplitude diff %g > 1e-12\n%s",
					maxK, trial, n, d, c.String())
			}
			got.Release()
			ref.Release()
		}
	}
}

// TestFusionEquivalenceParametricRebind checks the batch contract: one plan
// built from the symbolic ansatz serves every binding.
func TestFusionEquivalenceParametricRebind(t *testing.T) {
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	for layer := 0; layer < 2; layer++ {
		g := circuit.Sym(fmt.Sprintf("gamma%d", layer), 2)
		b := circuit.Sym(fmt.Sprintf("beta%d", layer), 2)
		for q := 0; q+1 < 4; q++ {
			c.RZZ(q, q+1, g)
		}
		for q := 0; q < 4; q++ {
			c.RX(q, b)
		}
	}
	plan := circuit.PlanFusion(c)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		binding := map[string]float64{
			"gamma0": rng.Float64(), "gamma1": rng.Float64(),
			"beta0": rng.Float64(), "beta1": rng.Float64(),
		}
		bound := c.Bind(binding)
		ref, _ := RunCircuit(bound, 1, rand.New(rand.NewSource(3)))
		got, _ := RunProgram(plan.Compile(bound), 1, rand.New(rand.NewSource(3)))
		if d := maxAmpDiff(ref, got); d > 1e-12 {
			t.Fatalf("trial %d: rebound fused diff %g > 1e-12", trial, d)
		}
		got.Release()
		ref.Release()
	}
}

// TestFusedWorkersMatchSerial runs a fused circuit with chunked workers and
// checks agreement with the serial path (exercises the persistent pool).
func TestFusedWorkersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomFullGateSetCircuit(13, 120, rng) // 8192 amps: above the parallel threshold
	serial, _ := RunFused(c, nil, 1, rand.New(rand.NewSource(1)))
	parallel, _ := RunFused(c, nil, 8, rand.New(rand.NewSource(1)))
	if d := maxAmpDiff(serial, parallel); d > 1e-12 {
		t.Fatalf("worker-pool execution diverges from serial: %g", d)
	}
	serial.Release()
	parallel.Release()
}

// TestSimulateFusedMatchesMeasurement checks that the fused Simulate path
// still produces the expected distribution on a GHZ circuit.
func TestSimulateFusedMatchesMeasurement(t *testing.T) {
	c := circuit.New(5)
	c.H(0)
	for q := 0; q+1 < 5; q++ {
		c.CX(q, q+1)
	}
	c.MeasureAll()
	counts := Simulate(c, 4000, 1, rand.New(rand.NewSource(9)))
	if len(counts) != 2 {
		t.Fatalf("GHZ support should be 2 strings, got %v", counts)
	}
	if counts["00000"]+counts["11111"] != 4000 {
		t.Fatalf("GHZ counts leak off support: %v", counts)
	}
	if counts["00000"] < 1700 || counts["11111"] < 1700 {
		t.Fatalf("GHZ counts unbalanced: %v", counts)
	}
}

// TestFusedBeatsPerGate keeps the fused engine's reason to exist in tier-1:
// on a QAOA-shaped circuit (all-pairs RZZ cost layers, RX mixers) the fused
// program, which folds each cost layer into one diagonal sweep, must run at
// least 1.5x faster than the per-gate kernels. Best of three attempts, so a
// transient load spike on a shared machine cannot fail the build.
func TestFusedBeatsPerGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	const n = 14
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for layer := 0; layer < 2; layer++ {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				c.RZZ(a, b, circuit.Bound(0.1*float64(a+b)+0.05*float64(layer)))
			}
		}
		for q := 0; q < n; q++ {
			c.RX(q, circuit.Bound(0.7))
		}
	}
	plan := circuit.PlanFusion(c)
	speedup := 0.0
	for attempt := 0; attempt < 3 && speedup < 1.5; attempt++ {
		t0 := time.Now()
		s, _ := RunCircuit(c, 1, rand.New(rand.NewSource(1)))
		perGate := time.Since(t0)
		s.Release()
		t0 = time.Now()
		s, _ = RunFused(c, plan, 1, rand.New(rand.NewSource(1)))
		fused := time.Since(t0)
		s.Release()
		speedup = max(speedup, float64(perGate)/float64(fused))
	}
	if speedup < 1.5 {
		t.Fatalf("fused engine only %.2fx faster than per-gate kernels, want >= 1.5x", speedup)
	}
	t.Logf("fused speedup over per-gate: %.1fx", speedup)
}
