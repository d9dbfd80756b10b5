// Package stabilizer implements the Aaronson–Gottesman CHP tableau simulator
// for Clifford circuits. It backs Qiskit Aer's "stabilizer" sub-backend in
// the framework and is the engine the "automatic" selector and the cost
// router's clifford rule pick for Clifford-only workloads such as GHZ
// preparation.
//
// Simulate takes one of two paths. A circuit whose measurements are all
// terminal (or absent) is sampled from its state's affine support, found
// once per run by Gaussian elimination over GF(2); its shots cost a few
// random bits each. A circuit that collapses its state mid-circuit (a Reset,
// or a Measure followed by another gate) re-runs its tail per shot on a
// copy of the tableau. ExpectationZ evaluates diagonal observables exactly
// from the same support.
package stabilizer

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"

	"qfw/internal/circuit"
)

// Tableau is the CHP stabilizer tableau: rows 0..n-1 are destabilizers,
// rows n..2n-1 are stabilizers, plus one scratch row. x and z are bit
// matrices (booleans), r holds the phase bits.
type Tableau struct {
	N int
	x [][]bool
	z [][]bool
	r []bool
}

// New returns the tableau of |0...0>.
func New(n int) *Tableau {
	if n < 1 {
		panic("stabilizer: need at least one qubit")
	}
	t := &Tableau{N: n}
	rows := 2*n + 1
	t.x = make([][]bool, rows)
	t.z = make([][]bool, rows)
	t.r = make([]bool, rows)
	for i := range t.x {
		t.x[i] = make([]bool, n)
		t.z[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		t.x[i][i] = true   // destabilizer X_i
		t.z[n+i][i] = true // stabilizer Z_i
	}
	return t
}

// Copy returns a deep copy.
func (t *Tableau) Copy() *Tableau {
	out := &Tableau{N: t.N, r: append([]bool(nil), t.r...)}
	out.x = make([][]bool, len(t.x))
	out.z = make([][]bool, len(t.z))
	for i := range t.x {
		out.x[i] = append([]bool(nil), t.x[i]...)
		out.z[i] = append([]bool(nil), t.z[i]...)
	}
	return out
}

// H applies a Hadamard on qubit q.
func (t *Tableau) H(q int) {
	for i := range t.x {
		t.r[i] = t.r[i] != (t.x[i][q] && t.z[i][q])
		t.x[i][q], t.z[i][q] = t.z[i][q], t.x[i][q]
	}
}

// S applies the phase gate on qubit q.
func (t *Tableau) S(q int) {
	for i := range t.x {
		t.r[i] = t.r[i] != (t.x[i][q] && t.z[i][q])
		t.z[i][q] = t.z[i][q] != t.x[i][q]
	}
}

// CX applies a CNOT with the given control and target.
func (t *Tableau) CX(c, q int) {
	for i := range t.x {
		t.r[i] = t.r[i] != (t.x[i][c] && t.z[i][q] && (t.x[i][q] != (!t.z[i][c])))
		t.x[i][q] = t.x[i][q] != t.x[i][c]
		t.z[i][c] = t.z[i][c] != t.z[i][q]
	}
}

// Derived Cliffords.

// X applies Pauli X (= H S S H... implemented via phase flips directly).
func (t *Tableau) X(q int) { t.H(q); t.Z(q); t.H(q) }

// Z applies Pauli Z (= S S).
func (t *Tableau) Z(q int) { t.S(q); t.S(q) }

// Y applies Pauli Y (= S X S S S... use Z then X with phase, phases of ±i
// cancel in the tableau representation).
func (t *Tableau) Y(q int) { t.Z(q); t.X(q) }

// Sdg applies S† (= S S S).
func (t *Tableau) Sdg(q int) { t.S(q); t.S(q); t.S(q) }

// CZ applies a controlled-Z.
func (t *Tableau) CZ(c, q int) { t.H(q); t.CX(c, q); t.H(q) }

// SWAP exchanges two qubits.
func (t *Tableau) SWAP(a, b int) { t.CX(a, b); t.CX(b, a); t.CX(a, b) }

// rowsum implements the CHP "rowsum" operation: row h ← row h * row i,
// tracking the phase exponent mod 4.
func (t *Tableau) rowsum(h, i int) {
	g := 0 // phase exponent accumulator (mod 4)
	for j := 0; j < t.N; j++ {
		x1, z1 := t.x[i][j], t.z[i][j]
		x2, z2 := t.x[h][j], t.z[h][j]
		switch {
		case !x1 && !z1:
			// identity contributes 0
		case x1 && z1: // Y
			g += b2i(z2) - b2i(x2)
		case x1 && !z1: // X
			g += b2i(z2) * (2*b2i(x2) - 1)
		case !x1 && z1: // Z
			g += b2i(x2) * (1 - 2*b2i(z2))
		}
	}
	g += 2*b2i(t.r[h]) + 2*b2i(t.r[i])
	g %= 4
	if g < 0 {
		g += 4
	}
	t.r[h] = g == 2
	for j := 0; j < t.N; j++ {
		t.x[h][j] = t.x[h][j] != t.x[i][j]
		t.z[h][j] = t.z[h][j] != t.z[i][j]
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Measure performs a computational-basis measurement of qubit q. A nil rng
// resolves a random outcome to 0.
func (t *Tableau) Measure(q int, rng *rand.Rand) int {
	n := t.N
	p := -1
	for i := n; i < 2*n; i++ {
		if t.x[i][q] {
			p = i
			break
		}
	}
	if p >= 0 {
		// Outcome is random.
		for i := 0; i < 2*n; i++ {
			if i != p && t.x[i][q] {
				t.rowsum(i, p)
			}
		}
		copy(t.x[p-n], t.x[p])
		copy(t.z[p-n], t.z[p])
		t.r[p-n] = t.r[p]
		for j := 0; j < n; j++ {
			t.x[p][j] = false
			t.z[p][j] = false
		}
		t.z[p][q] = true
		outcome := 0
		if rng != nil {
			outcome = rng.Intn(2)
		}
		t.r[p] = outcome == 1
		return outcome
	}
	// Deterministic outcome: use the scratch row.
	scratch := 2 * n
	for j := 0; j < n; j++ {
		t.x[scratch][j] = false
		t.z[scratch][j] = false
	}
	t.r[scratch] = false
	for i := 0; i < n; i++ {
		if t.x[i][q] {
			t.rowsum(scratch, i+n)
		}
	}
	if t.r[scratch] {
		return 1
	}
	return 0
}

// ApplyGate dispatches a Clifford circuit gate.
func (t *Tableau) ApplyGate(g circuit.Gate, rng *rand.Rand, cbits []int) error {
	switch g.Kind {
	case circuit.KindI, circuit.KindBarrier:
	case circuit.KindH:
		t.H(g.Qubits[0])
	case circuit.KindX:
		t.X(g.Qubits[0])
	case circuit.KindY:
		t.Y(g.Qubits[0])
	case circuit.KindZ:
		t.Z(g.Qubits[0])
	case circuit.KindS:
		t.S(g.Qubits[0])
	case circuit.KindSdg:
		t.Sdg(g.Qubits[0])
	case circuit.KindCX:
		t.CX(g.Qubits[0], g.Qubits[1])
	case circuit.KindCZ:
		t.CZ(g.Qubits[0], g.Qubits[1])
	case circuit.KindSWAP:
		t.SWAP(g.Qubits[0], g.Qubits[1])
	case circuit.KindCY:
		t.Sdg(g.Qubits[1])
		t.CX(g.Qubits[0], g.Qubits[1])
		t.S(g.Qubits[1])
	case circuit.KindMeasure:
		out := t.Measure(g.Qubits[0], rng)
		if g.Cbit >= 0 && g.Cbit < len(cbits) {
			cbits[g.Cbit] = out
		}
	case circuit.KindReset:
		if t.Measure(g.Qubits[0], rng) == 1 {
			t.X(g.Qubits[0])
		}
	default:
		return fmt.Errorf("stabilizer: non-Clifford gate %s", g.Kind.Name())
	}
	return nil
}

// Simulate runs a Clifford circuit for the requested shots (none, and nil
// counts, when shots <= 0). The gates before
// the first Measure or Reset run once, on a tableau every shot shares. What
// follows them picks the path:
//   - nothing but Measure, Barrier and I gates (terminal measurement, or none
//     at all): the state never collapses mid-circuit, so the shots are drawn
//     uniformly from its computational-basis support, x0 ⊕ span(basis), with
//     no per-shot tableau work;
//   - a Reset, or a Measure followed by any other gate (mid-circuit
//     collapse): every shot runs the rest of the circuit on its own copy of
//     the tableau.
//
// Keys are c.NQubits characters wide with classical bit 0 rightmost; a
// circuit without a Measure reads qubit q into bit q.
func Simulate(c *circuit.Circuit, shots int, rng *rand.Rand) (map[string]int, error) {
	if !c.IsClifford() {
		return nil, fmt.Errorf("stabilizer: circuit %q contains non-Clifford gates", c.Name)
	}
	if shots <= 0 {
		return nil, nil
	}
	base, rest := prefix(c)
	if terminal(rest) {
		return sampleSupport(base, rest, shots, rng), nil
	}
	return samplePerShot(base, rest, shots, rng), nil
}

// ExpectationZ returns the exact ⟨Σ_t coeffs[t] · Π_{q ∈ zs[t]} Z_q⟩ on the
// state a Clifford circuit's gates prepare with every Measure and Reset
// dropped, which is the state the dense engine evaluates an observable on.
// A qubit listed twice in a term cancels (Z·Z = I). Over the state's
// support x0 ⊕ span(basis), ⟨Z^s⟩ is 0 when s·b is odd for some basis
// vector b and (−1)^{s·x0} otherwise, so the sum is exact up to adding the
// coefficients in term order.
func ExpectationZ(c *circuit.Circuit, coeffs []float64, zs [][]int) (float64, error) {
	if !c.IsClifford() {
		return 0, fmt.Errorf("stabilizer: circuit %q contains non-Clifford gates", c.Name)
	}
	if len(coeffs) != len(zs) {
		return 0, fmt.Errorf("stabilizer: %d coefficients for %d Z-strings", len(coeffs), len(zs))
	}
	t := New(c.NQubits)
	for _, g := range c.Gates {
		if g.Kind != circuit.KindMeasure && g.Kind != circuit.KindReset {
			t.ApplyGate(g, nil, nil) // Clifford and collapse-free: cannot fail
		}
	}
	sup := supportOf(t)
	s := make([]uint64, len(sup.x0))
	var e float64
	for i, qs := range zs {
		clear(s)
		for _, q := range qs {
			if q < 0 || q >= t.N {
				return 0, fmt.Errorf("stabilizer: Z on qubit %d outside the %d-qubit circuit", q, t.N)
			}
			s[q/64] ^= 1 << (q % 64)
		}
		e += coeffs[i] * sup.expectZ(s)
	}
	return e, nil
}

// prefix runs c's gates up to its first Measure or Reset (the part every
// shot shares) on a fresh tableau, and returns it with the gates left over.
func prefix(c *circuit.Circuit) (*Tableau, []circuit.Gate) {
	t := New(c.NQubits)
	for i, g := range c.Gates {
		if g.Kind == circuit.KindMeasure || g.Kind == circuit.KindReset {
			return t, c.Gates[i:]
		}
		t.ApplyGate(g, nil, nil) // Clifford and collapse-free: cannot fail
	}
	return t, nil
}

// terminal reports whether the gates after the prefix only read the state.
func terminal(rest []circuit.Gate) bool {
	for _, g := range rest {
		switch g.Kind {
		case circuit.KindMeasure, circuit.KindBarrier, circuit.KindI:
		default:
			return false
		}
	}
	return true
}

// support is a stabilizer state's computational-basis support: the affine
// subspace x0 ⊕ span(basis), over which its outcome distribution is uniform
// (Aaronson & Gottesman). Vectors are bitsets of ⌈n/64⌉ words, qubit q in
// bit q%64 of word q/64; the basis vectors are linearly independent.
type support struct {
	x0    []uint64
	basis [][]uint64
}

// supportOf reads the support off t, leaving t unchanged: x0 is one outcome
// of measuring every qubit of a copy, and the basis is the X-parts of the
// stabilizer generators, row-reduced over GF(2).
func supportOf(t *Tableau) support {
	n, words := t.N, (t.N+63)/64
	sup := support{x0: make([]uint64, words)}
	m := t.Copy()
	for q := 0; q < n; q++ {
		sup.x0[q/64] |= uint64(m.Measure(q, nil)) << (q % 64)
	}
	buf := make([]uint64, n*words)
	rows := make([][]uint64, n)
	for i := range rows {
		rows[i] = buf[i*words : (i+1)*words]
		for q, x := range t.x[n+i] {
			if x {
				rows[i][q/64] |= 1 << (q % 64)
			}
		}
	}
	k := 0
	for q := 0; q < n && k < n; q++ {
		w, bit := q/64, uint64(1)<<(q%64)
		p := k
		for p < n && rows[p][w]&bit == 0 {
			p++
		}
		if p == n {
			continue
		}
		rows[k], rows[p] = rows[p], rows[k]
		for i := k + 1; i < n; i++ {
			if rows[i][w]&bit != 0 {
				xorInto(rows[i], rows[k])
			}
		}
		k++
	}
	sup.basis = rows[:k]
	return sup
}

// expectZ is ⟨Z^s⟩ for the qubit bitset s.
func (sup support) expectZ(s []uint64) float64 {
	for _, b := range sup.basis {
		if parity(s, b) {
			return 0
		}
	}
	if parity(s, sup.x0) {
		return -1
	}
	return 1
}

// sampleSupport draws the shots from the support of t's state and reads
// them out through the terminal measurements in rest. A shot is k uniform
// bits, ⌈k/64⌉ draws of rng, choosing which basis vectors to add to x0;
// shots are counted by that choice, and each distinct choice becomes an
// outcome and a key once.
func sampleSupport(t *Tableau, rest []circuit.Gate, shots int, rng *rand.Rand) map[string]int {
	sup := supportOf(t)
	k := len(sup.basis)
	choice := make([]byte, 8*((k+63)/64))
	slot := make(map[string]int) // choice → index into hits
	var hits []int
	for s := 0; s < shots; s++ {
		for w := 0; 64*w < k; w++ {
			v := rng.Uint64()
			if r := k - 64*w; r < 64 {
				v >>= 64 - r // the top bits: math/rand's additive generator is weakest in its low ones
			}
			binary.LittleEndian.PutUint64(choice[8*w:], v)
		}
		if i, ok := slot[string(choice)]; ok {
			hits[i]++
		} else {
			slot[string(choice)] = len(hits)
			hits = append(hits, 1)
		}
	}

	// src[b] is the qubit classical bit b reads, or -1: the last Measure into
	// b wins, and a circuit without one reads qubit b.
	n := t.N
	src := make([]int, n)
	for b := range src {
		src[b] = b
		if len(rest) > 0 {
			src[b] = -1
		}
	}
	for _, g := range rest {
		if g.Kind == circuit.KindMeasure && g.Cbit >= 0 && g.Cbit < n {
			src[g.Cbit] = g.Qubits[0]
		}
	}
	counts := make(map[string]int, len(hits))
	x := make([]uint64, len(sup.x0))
	key := make([]byte, n)
	for ch, i := range slot {
		copy(x, sup.x0)
		for j, b := range sup.basis {
			if ch[j/8]>>(j%8)&1 == 1 {
				xorInto(x, b)
			}
		}
		for b, q := range src {
			key[n-1-b] = '0'
			if q >= 0 && x[q/64]>>(q%64)&1 == 1 {
				key[n-1-b] = '1'
			}
		}
		counts[string(key)] += hits[i]
	}
	return counts
}

// samplePerShot runs rest on its own copy of t for every shot: the path for
// a circuit that collapses its state mid-circuit.
func samplePerShot(t *Tableau, rest []circuit.Gate, shots int, rng *rand.Rand) map[string]int {
	n := t.N
	measured := false
	for _, g := range rest {
		measured = measured || g.Kind == circuit.KindMeasure
	}
	counts := make(map[string]int)
	cbits := make([]int, n)
	key := make([]byte, n)
	for s := 0; s < shots; s++ {
		m := t.Copy()
		clear(cbits)
		for _, g := range rest {
			m.ApplyGate(g, rng, cbits) // Clifford: cannot fail
		}
		if !measured {
			for q := range cbits {
				cbits[q] = m.Measure(q, rng)
			}
		}
		for q, b := range cbits {
			key[n-1-q] = byte('0' + b)
		}
		counts[string(key)]++
	}
	return counts
}

func xorInto(dst, src []uint64) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func parity(a, b []uint64) bool {
	var acc uint64
	for i := range a {
		acc ^= a[i] & b[i]
	}
	return bits.OnesCount64(acc)&1 == 1
}
