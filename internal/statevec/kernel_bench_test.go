package statevec

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"qfw/internal/circuit"
)

// Kernel microbenchmarks comparing the SoA tile kernels against the AoS
// per-op kernels they replace on the staged path, plus the end-to-end stage
// sweep. Run with:
//
//	go test ./internal/statevec/ -bench Kernel -benchmem -run xxx
//
// The SoA benches operate on a single L2-resident tile (2^13 amplitudes,
// 128 KiB) — the regime the blocked executor keeps them in.

const benchTileBits = 13

func benchSoABufs(b *testing.B) (re, im []float64) {
	b.Helper()
	n := 1 << benchTileBits
	re = make([]float64, n)
	im = make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range re {
		re[i] = rng.Float64()
		im[i] = rng.Float64()
	}
	return re, im
}

func benchState(b *testing.B, n int) *State {
	b.Helper()
	s := NewState(n)
	rng := rand.New(rand.NewSource(5))
	for i := range s.Amp {
		s.Amp[i] = complex(rng.Float64(), rng.Float64())
	}
	return s
}

var benchM1 = [2][2]complex128{
	{complex(0.8, 0.1), complex(0.2, -0.55)},
	{complex(-0.2, -0.55), complex(0.8, -0.1)},
}

func BenchmarkKernel1QDenseSoA(b *testing.B) {
	re, im := benchSoABufs(b)
	b.SetBytes(int64(16 << benchTileBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soa1Q(re, im, benchM1, 1<<6)
	}
}

func BenchmarkKernel1QDenseAoS(b *testing.B) {
	s := benchState(b, benchTileBits)
	defer s.Release()
	b.SetBytes(int64(16 << benchTileBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply1Q(benchM1, 6)
	}
}

func BenchmarkKernel2QBlockSoA(b *testing.B) {
	re, im := benchSoABufs(b)
	m := circuit.Matrix2Q(circuit.KindRXX, 0.37)
	b.SetBytes(int64(16 << benchTileBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soa2QDense(re, im, m, 1<<9, 1<<2)
	}
}

func BenchmarkKernel2QBlockAoS(b *testing.B) {
	s := benchState(b, benchTileBits)
	defer s.Release()
	m := circuit.Matrix2Q(circuit.KindRXX, 0.37)
	b.SetBytes(int64(16 << benchTileBits))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply2QDense(m, 9, 2)
	}
}

// BenchmarkKernelDiagLayer measures one combined diagonal layer (fields on
// every qubit plus a coupling ring) applied tile-at-a-time from the split
// low/high/cross tables versus the per-op diagonal evaluator.
func benchDiagTerms(n int) ([]circuit.DiagTerm1, []circuit.DiagTerm2) {
	rng := rand.New(rand.NewSource(11))
	d1 := make([]circuit.DiagTerm1, n)
	for q := 0; q < n; q++ {
		ph := complex(0, rng.Float64())
		d1[q] = circuit.DiagTerm1{Q: q, D: [2]complex128{1, cmplx.Exp(ph)}}
	}
	d2 := make([]circuit.DiagTerm2, n)
	for q := 0; q < n; q++ {
		ph := cmplx.Exp(complex(0, rng.Float64()))
		d2[q] = circuit.DiagTerm2{A: q, B: (q + 1) % n, D: [4]complex128{1, ph, ph, 1}}
	}
	return d1, d2
}

func BenchmarkKernelDiagLayerSoA(b *testing.B) {
	const n = 18
	re := make([]float64, 1<<n)
	im := make([]float64, 1<<n)
	for i := range re {
		re[i] = 1
	}
	d1, d2 := benchDiagTerms(n)
	layout := make([]int, n)
	for q := range layout {
		layout[q] = q
	}
	td := buildTileDiag(d1, d2, layout, benchTileBits, n)
	defer td.release()
	tiles := 1 << (n - benchTileBits)
	tileSize := 1 << benchTileBits
	var acts [][2][]float64
	b.SetBytes(int64(16 << n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < tiles; t++ {
			off := t * tileSize
			acts = td.apply(re[off:off+tileSize], im[off:off+tileSize], t, acts)
		}
	}
}

func BenchmarkKernelDiagLayerAoS(b *testing.B) {
	const n = 18
	s := benchState(b, n)
	defer s.Release()
	d1, d2 := benchDiagTerms(n)
	b.SetBytes(int64(16 << n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplyDiagTerms(d1, d2)
	}
}

// BenchmarkStageSweep runs a full deep-circuit execution through the staged
// engine, the per-op fused engine and the per-gate kernels, single worker —
// the in-process numbers behind the kernel ablation's three series.
func benchDeepCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for layer := 0; layer < 6; layer++ {
		for q := 0; q < n; q++ {
			c.RZZ(q, (q+1)%n, circuit.Bound(0.3+0.01*float64(layer)))
		}
		for q := 0; q < n; q++ {
			c.RX(q, circuit.Bound(0.7))
		}
	}
	return c
}

func BenchmarkStageSweepBlocked(b *testing.B) {
	c := benchDeepCircuit(18)
	plan := circuit.PlanFusion(c)
	sched, err := circuit.PlanTileStages(plan, c, benchTileBits)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, ok := RunStaged(c, plan, sched, 1, rng)
		if !ok {
			b.Fatal("staged path refused")
		}
		s.Release()
	}
}

func BenchmarkStageSweepFused(b *testing.B) {
	c := benchDeepCircuit(18)
	plan := circuit.PlanFusion(c)
	prog := plan.Compile(c)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := RunProgram(prog, 1, rng)
		s.Release()
	}
}

// BenchmarkStageSweepPerGate is the per-gate seed path on the same circuit:
// the third engine of the blocked / fused / per-gate triplet.
func BenchmarkStageSweepPerGate(b *testing.B) {
	c := benchDeepCircuit(18)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := RunCircuit(c, 1, rng)
		s.Release()
	}
}
