package statevec_test

import (
	"math"
	"math/rand"
	"testing"

	"qfw/internal/core"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/statevec"
)

// The ⟨H⟩ reduction in isolation, on the observable batch_sweep evaluates
// (dense QAOA-12: 12 fields + 66 couplings over 4096 amplitudes). An
// external test package, because core imports statevec. Run with:
//
//	go test ./internal/statevec/ -bench ExpectationDiagonal -run xxx

// closureWalk is how core.Observable.EnergyOfIndex evaluated fields and
// couplings before it was compiled to a table: every factor through a
// closure call. (core's own tests keep the full evaluator, Pauli strings
// included, as their bit-identity reference.)
func closureWalk(o *core.Observable) func(idx int) float64 {
	return func(idx int) float64 {
		z := func(q int) float64 {
			if idx&(1<<uint(q)) != 0 {
				return -1
			}
			return 1
		}
		var e float64
		for i, f := range o.Fields {
			if f != 0 {
				e += f * z(i)
			}
		}
		for _, c := range o.Couplings {
			e += c.V * z(c.I) * z(c.J)
		}
		return e
	}
}

func qaoa12(tb testing.TB) (*statevec.State, *core.Observable) {
	tb.Helper()
	const n = 12
	rng := rand.New(rand.NewSource(5))
	s := statevec.NewState(n)
	var norm float64
	for i := range s.Amp {
		s.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		norm += real(s.Amp[i])*real(s.Amp[i]) + imag(s.Amp[i])*imag(s.Amp[i])
	}
	for i := range s.Amp {
		s.Amp[i] /= complex(math.Sqrt(norm), 0)
	}
	s.Amp[7] = 0 // the reduction skips zero-probability amplitudes
	return s, qaoa.ObservableFromQUBO(qubo.Random(n, 1, 1, rng))
}

// TestExpectationDiagonalBitIdentical: the compiled EnergyOfIndex behind
// ExpectationDiagonal sums the same products in the same order as the
// closure walk, also when the observable is narrower than the state.
func TestExpectationDiagonalBitIdentical(t *testing.T) {
	s, obs := qaoa12(t)
	narrow := &core.Observable{Fields: []float64{0.5, 0, -1.25}, Couplings: []core.Coupling{{I: 0, J: 2, V: 0.75}}}
	for _, o := range []*core.Observable{obs, narrow} {
		got, want := s.ExpectationDiagonal(o.EnergyOfIndex), s.ExpectationDiagonal(closureWalk(o))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("compiled EnergyOfIndex: %v, closure walk %v", got, want)
		}
	}
}

// tableReduce is ExpectationDiagonal with the call per amplitude taken out:
// the reduction an engine reading the compiled table directly would run. It
// is not shipped (the 4 ns per amplitude it saves are 0.25 ms of a 49 ms
// batch_sweep op); the benchmark keeps the number on record.
func tableReduce(amp []complex128, table []float64) float64 {
	var acc float64
	for i, a := range amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p > 0 {
			acc += p * table[i]
		}
	}
	return acc
}

var expectationSink float64

func BenchmarkExpectationDiagonal(b *testing.B) {
	s, obs := qaoa12(b)
	table := make([]float64, len(s.Amp))
	for i := range table {
		table[i] = obs.EnergyOfIndex(i)
	}
	perAmp := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s.Amp)), "ns/amp")
	}
	b.Run("closure", func(b *testing.B) {
		f := closureWalk(obs)
		for b.Loop() {
			expectationSink = s.ExpectationDiagonal(f)
		}
		perAmp(b)
	})
	b.Run("compiled", func(b *testing.B) {
		for b.Loop() {
			expectationSink = s.ExpectationDiagonal(obs.EnergyOfIndex)
		}
		perAmp(b)
	})
	b.Run("table", func(b *testing.B) {
		for b.Loop() {
			expectationSink = tableReduce(s.Amp, table)
		}
		perAmp(b)
	})
	// What a decoded request pays once before its first evaluation.
	b.Run("compile", func(b *testing.B) {
		for b.Loop() {
			fresh := &core.Observable{Fields: obs.Fields, Couplings: obs.Couplings}
			expectationSink = fresh.EnergyOfIndex(0)
		}
		perAmp(b)
	})
}
