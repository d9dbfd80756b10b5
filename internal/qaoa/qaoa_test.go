package qaoa

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/optimize"
	"qfw/internal/pauli"
	"qfw/internal/qubo"
)

func TestBuildAnsatzStructure(t *testing.T) {
	q := qubo.New(4)
	q.Q[0][0] = 1
	q.Set(0, 1, -1)
	q.Set(2, 3, 0.5)
	h, _ := q.CostHamiltonian()
	c := BuildAnsatz(h, 2)
	names := c.ParamNames()
	want := []string{"beta0", "beta1", "gamma0", "gamma1"}
	if len(names) != 4 {
		t.Fatalf("params %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("params %v, want %v", names, want)
		}
	}
	ops := c.CountOps()
	if ops["h"] != 4 || ops["rx"] != 8 || ops["measure"] != 4 {
		t.Fatalf("ops %v", ops)
	}
	bound := c.Bind(BindParams([]float64{0.1, 0.2, 0.3, 0.4}))
	if !bound.IsBound() {
		t.Fatal("binding incomplete")
	}
}

func TestExpectationFromCounts(t *testing.T) {
	h := pauli.IsingCost([]float64{1, -1}, nil)
	counts := map[string]int{
		"00": 50, // z=(+1,+1): E = 1 - 1 = 0
		"01": 25, // q0=1: z0=-1: E = -1 -1 = -2
		"10": 25, // q1=1: E = 1 + 1 = 2
	}
	got := ExpectationFromCounts(h, counts)
	want := (50*0.0 + 25*(-2.0) + 25*2.0) / 100
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("expectation %g, want %g", got, want)
	}
}

func TestSolveSmallQUBOFindsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := qubo.Random(6, 0.7, 1, rng)
	_, exact := optimize.BruteForce(q)
	res, err := Solve(q, LocalRunner{}, Options{P: 2, Shots: 512, MaxEvals: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Best *sampled* bitstring is nearly always optimal for n=6 with p=2.
	quality := optimize.SolutionQuality(res.Energy, exact, 0)
	if res.Energy > exact+1e-9 && quality < 0.9 {
		t.Fatalf("QAOA energy %g vs exact %g (quality %g)", res.Energy, exact, quality)
	}
	if res.Evals == 0 || len(res.Bits) != 6 {
		t.Fatalf("result %+v", res)
	}
}

func TestSolveFidelityAbove95(t *testing.T) {
	// The Fig. 3f check at unit-test scale: across several random QUBOs the
	// best-sampled solution quality stays above 95%.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4; trial++ {
		q := qubo.Random(8, 0.6, 1, rng)
		bits, exact := optimize.BruteForce(q)
		_ = bits
		res, err := Solve(q, LocalRunner{}, Options{P: 2, Shots: 768, MaxEvals: 50, Seed: int64(trial + 10)})
		if err != nil {
			t.Fatal(err)
		}
		worst := -exact
		if worst < exact {
			worst = exact + 1
		}
		fid := optimize.SolutionQuality(res.Energy, exact, worst)
		if fid < 0.95 {
			t.Fatalf("trial %d: fidelity %.3f < 0.95 (E=%g exact=%g)", trial, fid, res.Energy, exact)
		}
	}
}

func TestSolvePropagatesRunnerError(t *testing.T) {
	q := qubo.Random(4, 0.5, 1, rand.New(rand.NewSource(3)))
	_, err := Solve(q, failingRunner{}, Options{Seed: 1})
	if err == nil {
		t.Fatal("runner error swallowed")
	}
}

type failingRunner struct{}

func (failingRunner) Run(_ *circuit.Circuit, _ core.RunOptions) (*core.Result, error) {
	return nil, errors.New("backend unavailable")
}

// randomHistogram draws k distinct n-bit keys with counts in [1, 50].
func randomHistogram(rng *rand.Rand, n, k int) map[string]int {
	counts := map[string]int{}
	for len(counts) < k {
		key := make([]byte, n)
		for i := range key {
			key[i] = '0' + byte(rng.Intn(2))
		}
		counts[string(key)] = 1 + rng.Intn(50)
	}
	return counts
}

// TestExpectationFromCountsIsBitwiseRepeatable: one histogram gives one
// value, bit for bit, whatever order the map iterates in.
func TestExpectationFromCountsIsBitwiseRepeatable(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(5))
	hs := make([]float64, n)
	js := map[[2]int]float64{}
	for q := range hs {
		hs[q] = rng.NormFloat64()
		js[[2]int{q, (q + 1) % n}] = rng.NormFloat64()
	}
	h := pauli.IsingCost(hs, js)
	counts := randomHistogram(rng, n, 644)
	first := math.Float64bits(ExpectationFromCounts(h, counts))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(ExpectationFromCounts(h, counts)); got != first {
			t.Fatalf("call %d: expectation bits %x, first call %x", i, got, first)
		}
	}
}

// TestBestSampledBreaksTiesOnTheSmallerKey: a QUBO whose energy is
// symmetric under complementing every bit ties each sampled string with its
// complement, and the answer must not depend on map order.
func TestBestSampledBreaksTiesOnTheSmallerKey(t *testing.T) {
	const n = 6
	q := qubo.New(n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		// -(x_i + x_j - 2 x_i x_j): -1 on a cut edge of the ring, 0 otherwise.
		q.Q[i][i]--
		q.Q[j][j]--
		q.Set(i, j, 1)
	}
	energy := func(key string) float64 {
		bits := make([]int, n)
		for i := range bits {
			bits[i] = int(key[n-1-i] - '0')
		}
		return q.Energy(bits)
	}
	counts := randomHistogram(rand.New(rand.NewSource(3)), n, 24)
	bestE := math.Inf(1)
	for key := range counts {
		bestE = math.Min(bestE, energy(key))
	}
	var ties []string
	for key := range counts {
		if energy(key) == bestE {
			ties = append(ties, key)
		}
	}
	if len(ties) < 2 {
		t.Fatalf("histogram has %d keys at the lowest energy %g, want a tie", len(ties), bestE)
	}
	want := slices.Min(ties)
	for i := 0; i < 50; i++ {
		bits, e := bestSampled(q, counts)
		got := make([]byte, n)
		for k, b := range bits {
			got[n-1-k] = '0' + byte(b)
		}
		if string(got) != want || e != bestE {
			t.Fatalf("call %d: best %s (E=%g), want the smaller tied key %s of %v", i, got, e, want, ties)
		}
	}
}
