package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qfw/internal/statevec"
)

// referenceEnergyOfIndex is EnergyOfIndex as it stood at 743724b, verbatim:
// a walk over the terms through three closure calls each. The compiled
// evaluator must reproduce it bit for bit.
func referenceEnergyOfIndex(o *Observable, idx int) float64 {
	return referenceDiagonalEnergy(o, func(q int) float64 {
		if idx&(1<<uint(q)) != 0 {
			return -1
		}
		return 1
	})
}

func referenceDiagonalEnergy(o *Observable, z func(q int) float64) float64 {
	var e float64
	for i, f := range o.Fields {
		if f != 0 {
			e += f * z(i)
		}
	}
	for _, c := range o.Couplings {
		e += c.V * z(c.I) * z(c.J)
	}
	for _, t := range o.Paulis {
		v := t.Coeff
		for q := 0; q < len(t.Ops); q++ {
			switch t.Ops[q] {
			case 'Z':
				v *= z(q)
			case 'I':
			default:
				panic("core: non-diagonal Pauli term in diagonal evaluation")
			}
		}
		e += v
	}
	return e
}

// randomDiagonal draws a diagonal observable touching qubits [0, w): fields
// (some zero), dense couplings (some zero-valued, some repeated, some with
// I == J) and I/Z strings.
func randomDiagonal(rng *rand.Rand, w int) *Observable {
	o := &Observable{Fields: make([]float64, w)}
	for i := range o.Fields {
		if rng.Intn(4) > 0 {
			o.Fields[i] = rng.NormFloat64()
		}
	}
	for i := 0; i < w; i++ {
		for j := i; j < w; j++ {
			switch rng.Intn(8) {
			case 0:
			case 1:
				o.Couplings = append(o.Couplings, Coupling{I: j, J: i, V: 0})
			default:
				o.Couplings = append(o.Couplings, Coupling{I: i, J: j, V: rng.NormFloat64()})
			}
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		ops := make([]byte, 1+rng.Intn(w))
		for q := range ops {
			ops[q] = "IZ"[rng.Intn(2)]
		}
		o.Paulis = append(o.Paulis, PauliTerm{Coeff: rng.NormFloat64(), Ops: string(ops)})
	}
	return o
}

// checkBitIdentical compares the compiled evaluator with the reference on
// every index of an n-qubit register.
func checkBitIdentical(t testing.TB, o *Observable, n int) {
	t.Helper()
	for idx := 0; idx < 1<<uint(n); idx++ {
		got, want := o.EnergyOfIndex(idx), referenceEnergyOfIndex(o, idx)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("index %d of %d qubits: compiled %x (%v), reference %x (%v)",
				idx, n, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
}

func TestCompiledObservableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cases := 0
	for n := 2; n <= 12; n++ {
		// The full width, plus observables narrower than the register:
		// their table wraps over the qubits they leave alone.
		for _, w := range []int{n, 1 + rng.Intn(n), 1 + rng.Intn(n), 1 + rng.Intn(n), 1 + rng.Intn(n)} {
			o := randomDiagonal(rng, w)
			before, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			checkBitIdentical(t, o, n)
			if got := len(o.compiled().table); got > 1<<uint(w) {
				t.Fatalf("n=%d w=%d: table of %d entries", n, w, got)
			}
			after, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("JSON changed across the first evaluation:\n%s\n%s", before, after)
			}
			cases++
		}
	}
	if cases < 50 {
		t.Fatalf("only %d observables checked", cases)
	}
}

// TestCompiledObservableBeyondTableCap: an observable touching a qubit at
// or past diagTableMaxBits gets no table and still evaluates identically.
func TestCompiledObservableBeyondTableCap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, top := range []int{diagTableMaxBits, 40, 62} {
		o := randomDiagonal(rng, 6)
		o.Couplings = append(o.Couplings, Coupling{I: 1, J: top, V: 0.5})
		if o.compiled().table != nil {
			t.Fatalf("qubit %d: a table was built past the cap", top)
		}
		for i := 0; i < 2000; i++ {
			idx := int(rng.Uint64() >> 1)
			got, want := o.EnergyOfIndex(idx), referenceEnergyOfIndex(o, idx)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("qubit %d, index %#x: compiled %v, reference %v", top, idx, got, want)
			}
		}
	}
	// At the cap exactly the table exists; zero-valued terms on far qubits
	// do not widen it.
	o := &Observable{
		Fields:    make([]float64, 64),
		Couplings: []Coupling{{I: 0, J: diagTableMaxBits - 1, V: 1}, {I: 3, J: 50, V: 0}},
	}
	if got := len(o.compiled().table); got != 1<<diagTableMaxBits {
		t.Fatalf("table of %d entries at the cap", got)
	}
}

// TestCompiledObservableConcurrentFirstTouch: FanOut workers share one
// *Observable and race to evaluate it first (run under -race).
func TestCompiledObservableConcurrentFirstTouch(t *testing.T) {
	const n = 10
	o := randomDiagonal(rand.New(rand.NewSource(24)), n)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1<<n; i++ {
				idx := (i + g*61) & (1<<n - 1)
				if got, want := o.EnergyOfIndex(idx), referenceEnergyOfIndex(o, idx); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("goroutine %d, index %d: compiled %v, reference %v", g, idx, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCompiledObservablePanicsOnNonDiagonal(t *testing.T) {
	o := &Observable{Paulis: []PauliTerm{{Coeff: 1, Ops: "ZX"}}}
	for i := 0; i < 2; i++ { // the second call must panic too, not read a nil table
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("EnergyOfIndex evaluated an X term")
				}
			}()
			o.EnergyOfIndex(0)
		}()
	}
}

func TestObservableValidate(t *testing.T) {
	ok := []*Observable{
		nil,
		{},
		{Fields: []float64{1, 2, 3, 4}},
		{Fields: []float64{1, 2, 3, 4, 0, 0}}, // zero padding names no qubit
		{Couplings: []Coupling{{I: 0, J: 3, V: 1}, {I: 1, J: 9, V: 0}}},
		{Paulis: []PauliTerm{{Coeff: 1, Ops: "XYZI"}, {Coeff: 1, Ops: "Z"}, {Coeff: 1, Ops: ""}}},
	}
	for i, o := range ok {
		if err := o.Validate(4); err != nil {
			t.Errorf("valid observable %d rejected: %v", i, err)
		}
	}
	bad := []*Observable{
		{Fields: []float64{0, 0, 0, 0, 0, 3}},
		{Couplings: []Coupling{{I: 1, J: 9, V: 1}}},
		{Couplings: []Coupling{{I: -1, J: 2, V: 1}}},
		{Paulis: []PauliTerm{{Coeff: 1, Ops: "ZZZZZ"}}},
		{Paulis: []PauliTerm{{Coeff: 0, Ops: "IIIII"}}},
		{Paulis: []PauliTerm{{Coeff: 1, Ops: "ZQ"}}},
		{Paulis: []PauliTerm{{Coeff: 1, Ops: "zz"}}},
	}
	for i, o := range bad {
		err := o.Validate(4)
		if err == nil || !strings.Contains(err.Error(), "observable does not fit the 4-qubit circuit") {
			t.Errorf("invalid observable %d: got %v", i, err)
		}
	}
	if err := (&Observable{Fields: []float64{1}}).Validate(0); err == nil {
		t.Error("a field on qubit 0 fits a 0-qubit circuit")
	}
}

// FuzzObservableJSON decodes arbitrary bytes as a wire observable and, when
// it validates against a circuit of at most 12 qubits, holds the compiled
// evaluator to the reference on every index. Nothing may panic, and no input
// may buy a table past the cap.
func FuzzObservableJSON(f *testing.F) {
	// The shapes the in-tree builders emit: qaoa.ObservableFromQUBO (fields
	// plus sorted couplings), the benchmark's zzChain (zero fields, chain
	// couplings), vqls (Pauli strings, X/Y included).
	f.Add([]byte(`{"fields":[0.5,-1.25,0.75],"couplings":[{"i":0,"j":1,"v":0.3},{"i":0,"j":2,"v":-0.6},{"i":1,"j":2,"v":1.5}]}`), uint8(3))
	f.Add([]byte(`{"fields":[0,0,0,0],"couplings":[{"i":0,"j":1,"v":0.9},{"i":1,"j":2,"v":-0.2},{"i":2,"j":3,"v":0.4}]}`), uint8(4))
	f.Add([]byte(`{"fields":null,"paulis":[{"coeff":0.25,"ops":"IIZ"},{"coeff":-0.5,"ops":"ZZI"},{"coeff":0.125,"ops":"XIY"}]}`), uint8(3))
	f.Add([]byte(`{"fields":[0,0,0,0,0,3],"couplings":[{"i":1,"j":9,"v":1},{"i":-1,"j":2,"v":1}]}`), uint8(4))
	f.Add([]byte(`{"fields":[1],"couplings":[{"i":0,"j":62,"v":1},{"i":0,"j":4611686018427387904,"v":1}]}`), uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		var o Observable
		if json.Unmarshal(data, &o) != nil {
			return
		}
		n := 1 + int(width)%12
		if o.Validate(n) != nil || !o.IsDiagonal() {
			return
		}
		checkBitIdentical(t, &o, n)
		if got := len(o.compiled().table); got > 1<<uint(n) {
			t.Fatalf("validated for %d qubits, table has %d entries", n, got)
		}
	})
}

// TestFromCountsIsBitwiseRepeatable: FromCounts is the ionq backend's
// ExpVal, so one histogram must give one value, bit for bit, whatever order
// the map iterates in. A 644-key histogram of a 10-qubit Ising observable
// makes a float sum in map order differ within a few calls.
func TestFromCountsIsBitwiseRepeatable(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(5))
	obs := &Observable{Fields: make([]float64, n)}
	for q := range obs.Fields {
		obs.Fields[q] = rng.NormFloat64()
		obs.Couplings = append(obs.Couplings, Coupling{I: q, J: (q + 1) % n, V: rng.NormFloat64()})
	}
	counts := map[string]int{}
	for len(counts) < 644 {
		counts[statevec.FormatBits(rng.Intn(1<<n), n)] = 1 + rng.Intn(50)
	}
	first := math.Float64bits(obs.FromCounts(counts))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(obs.FromCounts(counts)); got != first {
			t.Fatalf("call %d: FromCounts bits %x, first call %x", i, got, first)
		}
	}
}
