package stabilizer

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"qfw/internal/circuit"
	"qfw/internal/statevec"
	"qfw/internal/workloads"
)

func TestGHZCorrelations(t *testing.T) {
	c := circuit.New(4)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	counts, err := Simulate(c, 2000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for key, n := range counts {
		if key != "0000" && key != "1111" {
			t.Fatalf("GHZ produced %q x%d", key, n)
		}
	}
	if counts["0000"] < 800 || counts["1111"] < 800 {
		t.Fatalf("GHZ counts skewed: %v", counts)
	}
}

func TestDeterministicOutcome(t *testing.T) {
	c := circuit.New(2)
	c.X(0).MeasureAll()
	counts, err := Simulate(c, 100, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if counts["01"] != 100 {
		t.Fatalf("deterministic X measurement wrong: %v", counts)
	}
}

func TestRejectsNonClifford(t *testing.T) {
	c := circuit.New(1)
	c.T(0)
	if _, err := Simulate(c, 10, rand.New(rand.NewSource(3))); err == nil {
		t.Fatal("expected error for T gate")
	}
}

func TestResetAndMidCircuitMeasure(t *testing.T) {
	c := circuit.New(2)
	c.X(0).Measure(0, 0).Reset(0).Measure(0, 1)
	counts, err := Simulate(c, 50, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// cbit0=1, cbit1=0 -> key "01" (cbit 0 rightmost).
	if counts["01"] != 50 {
		t.Fatalf("reset semantics wrong: %v", counts)
	}
}

func randomClifford(n, depth int, rng *rand.Rand) *circuit.Circuit {
	kinds := []circuit.Kind{circuit.KindH, circuit.KindX, circuit.KindY, circuit.KindZ,
		circuit.KindS, circuit.KindSdg, circuit.KindCX, circuit.KindCZ, circuit.KindSWAP, circuit.KindCY}
	c := circuit.New(n)
	for i := 0; i < depth; i++ {
		k := kinds[rng.Intn(len(kinds))]
		qs := rng.Perm(n)[:k.NumQubits()]
		c.Append(circuit.Gate{Kind: k, Qubits: qs})
	}
	return c
}

func TestQuickAgreesWithStatevector(t *testing.T) {
	// Property: outcome distributions of random Clifford circuits match the
	// state-vector simulator within sampling error.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		c := randomClifford(n, 15, rng)
		c.MeasureAll()
		shots := 3000
		sc, err := Simulate(c, shots, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		vc := statevec.Simulate(c, shots, 1, rand.New(rand.NewSource(seed+2)))
		// Compare per-outcome frequencies.
		keys := map[string]bool{}
		for k := range sc {
			keys[k] = true
		}
		for k := range vc {
			keys[k] = true
		}
		for k := range keys {
			fa := float64(sc[k]) / float64(shots)
			fb := float64(vc[k]) / float64(shots)
			if math.Abs(fa-fb) > 0.06 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestTableauCopyIndependent(t *testing.T) {
	a := New(3)
	b := a.Copy()
	a.H(0)
	// Measuring qubit 0 on b must be deterministic 0 (b untouched).
	if out := b.Measure(0, rand.New(rand.NewSource(6))); out != 0 {
		t.Fatalf("copy not independent, measured %d", out)
	}
}

func TestBellPairRandomButCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sawZero, sawOne := false, false
	for trial := 0; trial < 50; trial++ {
		tab := New(2)
		tab.H(0)
		tab.CX(0, 1)
		m0 := tab.Measure(0, rng)
		m1 := tab.Measure(1, rng)
		if m0 != m1 {
			t.Fatalf("Bell pair decorrelated: %d %d", m0, m1)
		}
		if m0 == 0 {
			sawZero = true
		} else {
			sawOne = true
		}
	}
	if !sawZero || !sawOne {
		t.Fatal("measurement not random")
	}
}

// chiSquareAgrees reports whether two histograms of the same total look
// drawn from one distribution: Σ (a−b)²/(a+b) has mean one per occupied
// outcome under that hypothesis, so a statistic six standard deviations
// above the degrees of freedom rejects it.
func chiSquareAgrees(a, b map[string]int) (bool, float64) {
	keys := maps.Clone(a)
	maps.Copy(keys, b)
	var stat float64
	for k := range keys {
		d := float64(a[k] - b[k])
		stat += d * d / float64(a[k]+b[k])
	}
	df := float64(len(keys) - 1)
	return stat <= df+6*math.Sqrt(2*df)+1, stat
}

// TestResetInPrefixCollapsesPerShot: a Reset before the first Measure
// collapses its qubit's partner afresh on every shot, so qubit 1 of this
// Bell pair still reads 0 or 1 half the time each.
func TestResetInPrefixCollapsesPerShot(t *testing.T) {
	c := circuit.New(2)
	c.H(0).CX(0, 1).Reset(0).MeasureAll()
	const shots = 1000
	counts, err := Simulate(c, shots, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if counts["00"] == 0 || counts["10"] == 0 || counts["00"]+counts["10"] != shots {
		t.Fatalf("reset collapsed every shot alike: %v", counts)
	}
	if ok, stat := chiSquareAgrees(counts, map[string]int{"00": shots / 2, "10": shots / 2}); !ok {
		t.Fatalf("counts %v are not 50/50 (χ² %.1f)", counts, stat)
	}
}

// measureTerminal appends one of the terminal-measurement shapes whose
// keys the support path must reproduce.
func measureTerminal(c *circuit.Circuit, shape string, rng *rand.Rand) {
	n := c.NQubits
	switch shape {
	case "all":
		c.MeasureAll()
	case "permuted":
		for q, b := range rng.Perm(n) {
			c.Measure(q, b)
		}
	case "partial": // half the qubits, into random (possibly shared) cbits
		for _, q := range rng.Perm(n)[:(n+1)/2] {
			c.Measure(q, rng.Intn(n))
		}
	case "repeated": // a qubit read twice, a cbit written twice
		c.MeasureAll().Barrier()
		c.Measure(rng.Intn(n), rng.Intn(n)).I(0).Measure(rng.Intn(n), rng.Intn(n))
	}
}

// TestSupportMatchesPerShot: sampling the affine support gives the same
// distribution, key for key, as measuring a fresh tableau copy per shot.
func TestSupportMatchesPerShot(t *testing.T) {
	const shots = 4000
	for n := 2; n <= 12; n++ {
		for _, shape := range []string{"all", "permuted", "partial", "repeated"} {
			rng := rand.New(rand.NewSource(int64(100*n + len(shape))))
			c := randomClifford(n, 4*n, rng)
			measureTerminal(c, shape, rng)
			got, err := Simulate(c, shots, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			base, rest := prefix(c)
			if !terminal(rest) {
				t.Fatalf("n=%d %s: measures not terminal", n, shape)
			}
			want := samplePerShot(base, rest, shots, rand.New(rand.NewSource(2)))
			if ok, stat := chiSquareAgrees(got, want); !ok {
				t.Errorf("n=%d %s: χ² %.1f over %d outcomes", n, shape, stat, len(got))
			}
		}
	}
}

// TestWideGHZ: GHZ states past one and two 64-bit words still read only
// all-zeros or all-ones, about equally often.
func TestWideGHZ(t *testing.T) {
	const shots = 2000
	for _, n := range []int{70, 130} {
		counts, err := Simulate(workloads.GHZ(n), shots, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		zeros, ones := strings.Repeat("0", n), strings.Repeat("1", n)
		if len(counts) != 2 || 5*counts[zeros] < 2*shots || 5*counts[ones] < 2*shots {
			t.Fatalf("GHZ-%d: %d outcomes, %d all-zeros, %d all-ones", n, len(counts), counts[zeros], counts[ones])
		}
	}
}

// TestSimulateDeterministic: one seed, one histogram, on both paths.
func TestSimulateDeterministic(t *testing.T) {
	mid := circuit.New(3)
	mid.H(0).CX(0, 1).Measure(0, 0).H(2).CX(2, 1).MeasureAll()
	for _, c := range []*circuit.Circuit{workloads.GHZ(12), randomClifford(9, 60, rand.New(rand.NewSource(3))), mid} {
		a, _ := Simulate(c, 1024, rand.New(rand.NewSource(11)))
		b, _ := Simulate(c, 1024, rand.New(rand.NewSource(11)))
		if !maps.Equal(a, b) {
			t.Fatalf("%s: same seed, different histograms: %v vs %v", c.Name, a, b)
		}
	}
}

// TestSimulateAllocs: terminal sampling allocates per distinct outcome and
// per tableau, not per shot.
func TestSimulateAllocs(t *testing.T) {
	c := workloads.GHZ(12)
	rng := rand.New(rand.NewSource(1))
	if a := testing.AllocsPerRun(20, func() { Simulate(c, 1024, rng) }); a > 300 {
		t.Fatalf("GHZ-12 x 1024 shots: %.0f allocs per run, want <= 300", a)
	}
}

// TestExpectationZMatchesStatevector: the exact ⟨Σ c·Z…Z⟩ read off the
// support equals the dense engine's on seeded random Cliffords, whatever
// cbits their measures write (⟨H⟩ is over qubits, as on the dense engine).
func TestExpectationZMatchesStatevector(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		c := randomClifford(n, 6*n, rng)
		measureTerminal(c, "permuted", rng)
		var coeffs []float64
		var zs [][]int
		for j := 0; j < 1+rng.Intn(6); j++ {
			coeffs = append(coeffs, rng.NormFloat64())
			zs = append(zs, rng.Perm(n)[:rng.Intn(n+1)])
		}
		got, err := ExpectationZ(c, coeffs, zs)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := statevec.RunCircuit(c.StripMeasurements(), 1, nil)
		want := s.ExpectationDiagonal(func(idx int) float64 {
			var e float64
			for i, qs := range zs {
				v := coeffs[i]
				for _, q := range qs {
					if idx>>q&1 == 1 {
						v = -v
					}
				}
				e += v
			}
			return e
		})
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("seed %d (n=%d): ⟨H⟩ = %.15g, dense %.15g", seed, n, got, want)
		}
	}
}

func TestExpectationZRejects(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	if _, err := ExpectationZ(c, []float64{1}, [][]int{{2}}); err == nil {
		t.Fatal("Z outside the circuit accepted")
	}
	if _, err := ExpectationZ(c, []float64{1, 2}, [][]int{{0}}); err == nil {
		t.Fatal("mismatched coefficients accepted")
	}
	c.T(1)
	if _, err := ExpectationZ(c, []float64{1}, [][]int{{0}}); err == nil {
		t.Fatal("non-Clifford circuit accepted")
	}
}

// BenchmarkSimulate times 1024 shots of the kernel alone: the GHZ states the
// router sends here, one and two words wide, and a dense random Clifford.
func BenchmarkSimulate(b *testing.B) {
	rc := randomClifford(20, 200, rand.New(rand.NewSource(1)))
	rc.MeasureAll()
	for _, c := range []*circuit.Circuit{workloads.GHZ(12), workloads.GHZ(128), rc} {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("random-clifford-%d", c.NQubits)
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(c, 1024, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
