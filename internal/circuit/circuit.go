package circuit

import (
	"fmt"
	"sort"

	"qfw/internal/linalg"
)

// Circuit is an ordered list of gates over n qubits and n classical bits.
// The zero value is unusable; construct with New.
type Circuit struct {
	NQubits int    `json:"nqubits"`
	Name    string `json:"name,omitempty"`
	Gates   []Gate `json:"gates"`
}

// New returns an empty circuit on n qubits.
func New(n int) *Circuit {
	if n <= 0 {
		panic(fmt.Sprintf("circuit: invalid qubit count %d", n))
	}
	return &Circuit{NQubits: n}
}

// Copy returns a deep copy of the circuit.
func (c *Circuit) Copy() *Circuit {
	out := &Circuit{NQubits: c.NQubits, Name: c.Name, Gates: make([]Gate, len(c.Gates))}
	for i, g := range c.Gates {
		ng := g
		ng.Qubits = append([]int(nil), g.Qubits...)
		ng.Params = append([]Param(nil), g.Params...)
		if g.Matrix != nil {
			ng.Matrix = g.Matrix.Copy()
		}
		out.Gates[i] = ng
	}
	return out
}

// check reports why g cannot join c: a qubit out of range or repeated, or
// a qubit, parameter or matrix count that does not fit its kind.
func (c *Circuit) check(g Gate) error {
	seen := map[int]bool{}
	for _, q := range g.Qubits {
		if q < 0 || q >= c.NQubits {
			return fmt.Errorf("circuit: qubit %d out of range [0,%d)", q, c.NQubits)
		}
		if seen[q] {
			return fmt.Errorf("circuit: duplicate qubit %d in one gate", q)
		}
		seen[q] = true
	}
	if want := g.Kind.NumQubits(); want != 0 && want != len(g.Qubits) {
		return fmt.Errorf("circuit: %s expects %d qubits, got %d", g.Kind.Name(), want, len(g.Qubits))
	}
	if want := g.Kind.NumParams(); want != len(g.Params) {
		return fmt.Errorf("circuit: %s expects %d params, got %d", g.Kind.Name(), want, len(g.Params))
	}
	if g.Kind == KindUnitary {
		if g.Matrix == nil {
			return fmt.Errorf("circuit: unitary gate without matrix")
		}
		if dim := 1 << len(g.Qubits); g.Matrix.Rows != dim || g.Matrix.Cols != dim {
			return fmt.Errorf("circuit: unitary matrix %dx%d does not match %d qubits", g.Matrix.Rows, g.Matrix.Cols, len(g.Qubits))
		}
	}
	return nil
}

// Append adds a gate, validating qubit indices and arity; an invalid gate
// is a programming error and panics.
func (c *Circuit) Append(g Gate) *Circuit {
	if err := c.check(g); err != nil {
		panic(err.Error())
	}
	c.Gates = append(c.Gates, g)
	return c
}

// Fluent single-gate builders. Controlled gates list controls first.

func (c *Circuit) I(q int) *Circuit { return c.Append(Gate{Kind: KindI, Qubits: []int{q}}) }
func (c *Circuit) H(q int) *Circuit { return c.Append(Gate{Kind: KindH, Qubits: []int{q}}) }
func (c *Circuit) X(q int) *Circuit { return c.Append(Gate{Kind: KindX, Qubits: []int{q}}) }
func (c *Circuit) Y(q int) *Circuit { return c.Append(Gate{Kind: KindY, Qubits: []int{q}}) }
func (c *Circuit) Z(q int) *Circuit { return c.Append(Gate{Kind: KindZ, Qubits: []int{q}}) }
func (c *Circuit) S(q int) *Circuit { return c.Append(Gate{Kind: KindS, Qubits: []int{q}}) }
func (c *Circuit) Sdg(q int) *Circuit {
	return c.Append(Gate{Kind: KindSdg, Qubits: []int{q}})
}
func (c *Circuit) T(q int) *Circuit { return c.Append(Gate{Kind: KindT, Qubits: []int{q}}) }
func (c *Circuit) Tdg(q int) *Circuit {
	return c.Append(Gate{Kind: KindTdg, Qubits: []int{q}})
}
func (c *Circuit) SX(q int) *Circuit { return c.Append(Gate{Kind: KindSX, Qubits: []int{q}}) }
func (c *Circuit) RX(q int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindRX, Qubits: []int{q}, Params: []Param{theta}})
}
func (c *Circuit) RY(q int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindRY, Qubits: []int{q}, Params: []Param{theta}})
}
func (c *Circuit) RZ(q int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindRZ, Qubits: []int{q}, Params: []Param{theta}})
}
func (c *Circuit) P(q int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindP, Qubits: []int{q}, Params: []Param{theta}})
}
func (c *Circuit) CX(ctrl, tgt int) *Circuit {
	return c.Append(Gate{Kind: KindCX, Qubits: []int{ctrl, tgt}})
}
func (c *Circuit) CY(ctrl, tgt int) *Circuit {
	return c.Append(Gate{Kind: KindCY, Qubits: []int{ctrl, tgt}})
}
func (c *Circuit) CZ(ctrl, tgt int) *Circuit {
	return c.Append(Gate{Kind: KindCZ, Qubits: []int{ctrl, tgt}})
}
func (c *Circuit) CRX(ctrl, tgt int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindCRX, Qubits: []int{ctrl, tgt}, Params: []Param{theta}})
}
func (c *Circuit) CRY(ctrl, tgt int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindCRY, Qubits: []int{ctrl, tgt}, Params: []Param{theta}})
}
func (c *Circuit) CRZ(ctrl, tgt int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindCRZ, Qubits: []int{ctrl, tgt}, Params: []Param{theta}})
}
func (c *Circuit) CP(ctrl, tgt int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindCP, Qubits: []int{ctrl, tgt}, Params: []Param{theta}})
}
func (c *Circuit) SWAP(a, b int) *Circuit {
	return c.Append(Gate{Kind: KindSWAP, Qubits: []int{a, b}})
}
func (c *Circuit) RZZ(a, b int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindRZZ, Qubits: []int{a, b}, Params: []Param{theta}})
}
func (c *Circuit) RXX(a, b int, theta Param) *Circuit {
	return c.Append(Gate{Kind: KindRXX, Qubits: []int{a, b}, Params: []Param{theta}})
}
func (c *Circuit) CCX(c1, c2, tgt int) *Circuit {
	return c.Append(Gate{Kind: KindCCX, Qubits: []int{c1, c2, tgt}})
}
func (c *Circuit) CSWAP(ctrl, a, b int) *Circuit {
	return c.Append(Gate{Kind: KindCSWAP, Qubits: []int{ctrl, a, b}})
}
func (c *Circuit) Unitary(m *linalg.Matrix, qs ...int) *Circuit {
	return c.Append(Gate{Kind: KindUnitary, Qubits: qs, Matrix: m})
}
func (c *Circuit) Measure(q, cbit int) *Circuit {
	return c.Append(Gate{Kind: KindMeasure, Qubits: []int{q}, Cbit: cbit})
}
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.NQubits; q++ {
		c.Measure(q, q)
	}
	return c
}
func (c *Circuit) Barrier(qs ...int) *Circuit {
	return c.Append(Gate{Kind: KindBarrier, Qubits: qs})
}
func (c *Circuit) Reset(q int) *Circuit {
	return c.Append(Gate{Kind: KindReset, Qubits: []int{q}})
}

// Compose appends all gates of other (same width) to c.
func (c *Circuit) Compose(other *Circuit) *Circuit {
	if other.NQubits > c.NQubits {
		panic("circuit: compose width mismatch")
	}
	for _, g := range other.Copy().Gates {
		c.Append(g)
	}
	return c
}

// Bind returns a copy with every symbolic parameter resolved against
// binding. Parameters whose name is absent from the binding stay symbolic
// (check IsBound afterwards), so a partial binding arriving over RPC is a
// detectable error instead of a worker panic.
func (c *Circuit) Bind(binding map[string]float64) *Circuit {
	out := c.Copy()
	for i := range out.Gates {
		for j, p := range out.Gates[i].Params {
			if !p.IsBound() {
				if _, ok := binding[p.Name]; ok {
					out.Gates[i].Params[j] = Bound(p.Value(binding))
				}
			}
		}
	}
	return out
}

// ParamNames returns the sorted set of unbound parameter names.
func (c *Circuit) ParamNames() []string {
	set := map[string]bool{}
	for _, g := range c.Gates {
		for _, p := range g.Params {
			if !p.IsBound() {
				set[p.Name] = true
			}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IsBound reports whether the circuit has no unbound parameters.
func (c *Circuit) IsBound() bool { return len(c.ParamNames()) == 0 }

// Inverse returns the adjoint circuit (gates reversed and daggered).
// Measure/Reset gates cannot be inverted and cause a panic.
func (c *Circuit) Inverse() *Circuit {
	out := New(c.NQubits)
	out.Name = c.Name + "_dg"
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		switch g.Kind {
		case KindMeasure, KindReset:
			panic("circuit: cannot invert measurement/reset")
		case KindBarrier:
			out.Append(g)
			continue
		case KindUnitary:
			out.Append(Gate{Kind: KindUnitary, Qubits: append([]int(nil), g.Qubits...), Matrix: g.Matrix.Dagger()})
			continue
		case KindSX:
			// SX† = SX·X·Z up to phase; use the dense adjoint for exactness.
			m := linalg.New(2, 2)
			t := Matrix1Q(KindSX, 0)
			m.Set(0, 0, t[0][0])
			m.Set(0, 1, t[0][1])
			m.Set(1, 0, t[1][0])
			m.Set(1, 1, t[1][1])
			out.Append(Gate{Kind: KindUnitary, Qubits: append([]int(nil), g.Qubits...), Matrix: m.Dagger()})
			continue
		}
		nk, negate := DaggerKind(g.Kind)
		ng := Gate{Kind: nk, Qubits: append([]int(nil), g.Qubits...)}
		for _, p := range g.Params {
			if negate {
				ng.Params = append(ng.Params, Param{Name: p.Name, Coeff: -p.Coeff, Const: -p.Const})
			} else {
				ng.Params = append(ng.Params, p)
			}
		}
		out.Append(ng)
	}
	return out
}

// Depth returns the circuit depth using greedy ASAP layering (barriers
// synchronize all listed qubits, or all qubits when none listed).
func (c *Circuit) Depth() int {
	level := make([]int, c.NQubits)
	depth := 0
	for _, g := range c.Gates {
		qs := g.Qubits
		if g.Kind == KindBarrier && len(qs) == 0 {
			qs = make([]int, c.NQubits)
			for i := range qs {
				qs[i] = i
			}
		}
		mx := 0
		for _, q := range qs {
			if level[q] > mx {
				mx = level[q]
			}
		}
		if g.Kind != KindBarrier {
			mx++
		}
		for _, q := range qs {
			level[q] = mx
		}
		if mx > depth {
			depth = mx
		}
	}
	return depth
}

// CountOps returns a histogram of gate mnemonics.
func (c *Circuit) CountOps() map[string]int {
	h := map[string]int{}
	for _, g := range c.Gates {
		h[g.Kind.Name()]++
	}
	return h
}

// NumTwoQubitGates counts gates acting on two or more qubits (excluding barriers).
func (c *Circuit) NumTwoQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind != KindBarrier && len(g.Qubits) >= 2 {
			n++
		}
	}
	return n
}

// IsClifford reports whether every gate is a Clifford operation.
func (c *Circuit) IsClifford() bool {
	for _, g := range c.Gates {
		if !g.Kind.IsClifford() {
			return false
		}
	}
	return true
}

// HasMeasurements reports whether the circuit contains measure gates.
func (c *Circuit) HasMeasurements() bool {
	for _, g := range c.Gates {
		if g.Kind == KindMeasure {
			return true
		}
	}
	return true && c.countMeasure() > 0
}

func (c *Circuit) countMeasure() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == KindMeasure {
			n++
		}
	}
	return n
}

// StripMeasurements returns a copy without measure/barrier/reset gates,
// used by simulators that sample from the final state directly.
func (c *Circuit) StripMeasurements() *Circuit {
	out := New(c.NQubits)
	out.Name = c.Name
	for _, g := range c.Gates {
		switch g.Kind {
		case KindMeasure, KindBarrier, KindReset:
			continue
		}
		out.Append(g)
	}
	return out
}

// InteractionDistance returns the maximum |i-j| over two-qubit interactions,
// a cheap proxy for entanglement spread used by the automatic backend
// selector (nearest-neighbour circuits suit MPS).
func (c *Circuit) InteractionDistance() int {
	mx := 0
	for _, g := range c.Gates {
		if g.Kind == KindBarrier {
			continue
		}
		for i := 0; i < len(g.Qubits); i++ {
			for j := i + 1; j < len(g.Qubits); j++ {
				d := g.Qubits[i] - g.Qubits[j]
				if d < 0 {
					d = -d
				}
				if d > mx {
					mx = d
				}
			}
		}
	}
	return mx
}

// String gives a compact human-readable listing.
func (c *Circuit) String() string {
	s := fmt.Sprintf("circuit %q: %d qubits, %d gates, depth %d\n", c.Name, c.NQubits, len(c.Gates), c.Depth())
	for _, g := range c.Gates {
		s += fmt.Sprintf("  %-8s %v", g.Kind.Name(), g.Qubits)
		if len(g.Params) > 0 {
			s += " ("
			for i, p := range g.Params {
				if i > 0 {
					s += ", "
				}
				if p.IsBound() {
					s += fmt.Sprintf("%.6g", p.Const)
				} else {
					s += fmt.Sprintf("%g*%s%+g", p.Coeff, p.Name, p.Const)
				}
			}
			s += ")"
		}
		s += "\n"
	}
	return s
}
