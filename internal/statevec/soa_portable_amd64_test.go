package statevec

import (
	"math/rand"
	"testing"

	"qfw/internal/circuit"
)

// TestPortableSoALoops runs the staged engine on the portable Go SoA loops,
// which an amd64 host with AVX2+FMA otherwise never executes: the staged
// equivalence corpora must hold on them, and at n = 14 they must agree with
// the AVX2 kernels to 1e-12. useAVX is restored when the test ends.
func TestPortableSoALoops(t *testing.T) {
	avx := useAVX
	t.Cleanup(func() { useAVX = avx })
	useAVX = false
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"StagedEquivalenceRandom", TestStagedEquivalenceRandom},
		{"StagedEquivalenceDeepDiagonal", TestStagedEquivalenceDeepDiagonal},
		{"StagedWorkersMatchSerial", TestStagedWorkersMatchSerial},
	} {
		t.Run(tc.name, tc.run)
	}

	t.Run("AgreesWithAVXAtN14", func(t *testing.T) {
		if !avx {
			t.Skip("the CPU lacks AVX2+FMA: only the portable loops run here")
		}
		c := randomFullGateSetCircuit(14, 200, rand.New(rand.NewSource(59)))
		plan := circuit.PlanFusion(c)
		sched, err := circuit.PlanTileStages(plan, c, 10)
		if err != nil {
			t.Fatalf("planning failed: %v", err)
		}
		run := func(withAVX bool) *State {
			useAVX = withAVX
			s, _, ok := RunStaged(c, plan, sched, 2, rand.New(rand.NewSource(5)))
			if !ok {
				t.Fatal("staged path refused a measurement-free circuit")
			}
			return s
		}
		portable, vector := run(false), run(true)
		useAVX = false
		if d := maxAmpDiff(portable, vector); d > 1e-12 {
			t.Fatalf("portable and AVX2 SoA loops differ by %g > 1e-12 (%d stages)", d, len(sched.Stages))
		}
		portable.Release()
		vector.Release()
	})
}
