package circuit

import (
	"fmt"
	"math"

	"qfw/internal/linalg"
)

// Differentiation support: every parametric gate kind is annotated with its
// derivative generator (for adjoint-mode differentiation) and its
// parameter-shift rule (for execution-only backends). Both express the same
// fact — U(θ) = exp(θ·G) for a constant anti-Hermitian-up-to-scale G — in
// the two forms the gradient engines consume:
//
//   - adjoint mode applies G directly to a state between a forward and a
//     reverse sweep (one derivative per gate for the price of a few kernel
//     passes), and
//   - parameter-shift re-executes the circuit at shifted angles, which works
//     through any backend that can only run circuits.

// GenOpKind is one elementary factor of a derivative generator.
type GenOpKind int

// Generator factors. GenP1 is the |1><1| projector — the generator of phase
// gates and the control factor of controlled rotations.
const (
	GenX GenOpKind = iota
	GenY
	GenZ
	GenP1
)

// GenOp applies one generator factor to qubit Q.
type GenOp struct {
	Q    int
	Kind GenOpKind
}

// Generator is the derivative generator of a parametric gate:
// dU/dθ = Scale · (∏ Ops) · U(θ). Ops are diagonal/permutation factors on
// distinct qubits, so they commute and apply in any order.
type Generator struct {
	Scale complex128
	Ops   []GenOp
}

// GateGenerator returns the derivative generator of a parametric gate, or
// false for kinds without one (non-parametric kinds).
func GateGenerator(g *Gate) (Generator, bool) {
	mihalf := complex(0, -0.5)
	i := complex(0, 1)
	switch g.Kind {
	case KindRX:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenX}}}, true
	case KindRY:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenY}}}, true
	case KindRZ:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenZ}}}, true
	case KindP:
		return Generator{Scale: i, Ops: []GenOp{{g.Qubits[0], GenP1}}}, true
	case KindCRX:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenP1}, {g.Qubits[1], GenX}}}, true
	case KindCRY:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenP1}, {g.Qubits[1], GenY}}}, true
	case KindCRZ:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenP1}, {g.Qubits[1], GenZ}}}, true
	case KindCP:
		return Generator{Scale: i, Ops: []GenOp{{g.Qubits[0], GenP1}, {g.Qubits[1], GenP1}}}, true
	case KindRZZ:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenZ}, {g.Qubits[1], GenZ}}}, true
	case KindRXX:
		return Generator{Scale: mihalf, Ops: []GenOp{{g.Qubits[0], GenX}, {g.Qubits[1], GenX}}}, true
	}
	return Generator{}, false
}

// ShiftTerm is one term of a parameter-shift rule:
// the term contributes Coeff·(E(θ+Shift) − E(θ−Shift)) to dE/dθ.
type ShiftTerm struct {
	Shift float64
	Coeff float64
}

// ShiftRule returns the parameter-shift rule of a parametric gate kind.
// Plain rotations and phase gates (two-eigenvalue generators, gap 1) use the
// standard two-term ±π/2 rule; controlled rotations (generator eigenvalues
// {−1/2, 0, +1/2}) need the four-term rule with shifts π/2 and 3π/2.
func ShiftRule(k Kind) ([]ShiftTerm, bool) {
	switch k {
	case KindRX, KindRY, KindRZ, KindP, KindCP, KindRZZ, KindRXX:
		return []ShiftTerm{{Shift: math.Pi / 2, Coeff: 0.5}}, true
	case KindCRX, KindCRY, KindCRZ:
		s2 := math.Sqrt2
		d1 := (s2 + 1) / (4 * s2)
		d2 := (s2 - 1) / (4 * s2)
		return []ShiftTerm{
			{Shift: math.Pi / 2, Coeff: d1},
			{Shift: 3 * math.Pi / 2, Coeff: -d2},
		}, true
	}
	return nil, false
}

// DaggerFusedOp returns the adjoint of a compiled fused operation, staying
// on the same specialized kernel class wherever the form is closed under
// conjugate transposition (diagonal, permutation, RX-like, all-real). The
// reverse sweep of adjoint differentiation applies each inverse twice (once
// to |ψ⟩, once to |λ⟩), so daggers are computed once at compile time.
func DaggerFusedOp(op FusedOp) FusedOp {
	dag2 := func(m [2][2]complex128) [2][2]complex128 {
		return [2][2]complex128{
			{conj(m[0][0]), conj(m[1][0])},
			{conj(m[0][1]), conj(m[1][1])},
		}
	}
	out := op
	switch op.Kind {
	case FusedGate:
		out.Gate = daggerGate(op.Gate)
	case FusedDense1Q, FusedReal1Q, FusedRXLike, FusedDiag1Q:
		out.M1 = dag2(op.M1)
	case FusedPerm1Q:
		out.M1 = [2][2]complex128{{0, conj(op.M1[1][0])}, {conj(op.M1[0][1]), 0}}
	case FusedHadamard:
		// self-adjoint
	case FusedRXPair:
		// (c0, v0, v1, c1)† = (c0, −v1, −v0, c1); rotations on distinct
		// qubits commute, so the stage order needs no reversal.
		out.RXA = [4]float64{op.RXA[0], -op.RXA[2], -op.RXA[1], op.RXA[3]}
		out.RXB = [4]float64{op.RXB[0], -op.RXB[2], -op.RXB[1], op.RXB[3]}
	case FusedDense2Q, FusedDenseKQ:
		out.M = op.M.Dagger()
	case FusedPerm2Q:
		// U: out[r] = Phase[r]·in[Perm[r]]  ⇒  U†: out[Perm[r]] = conj(Phase[r])·in[r].
		var perm [4]uint8
		var phase [4]complex128
		for r := 0; r < 4; r++ {
			perm[op.Perm[r]] = uint8(r)
			phase[op.Perm[r]] = conj(op.Phase[r])
		}
		out.Perm = perm
		out.Phase = phase
	case FusedDiagonal:
		out.D1 = make([]DiagTerm1, len(op.D1))
		for i, t := range op.D1 {
			out.D1[i] = DiagTerm1{Q: t.Q, D: [2]complex128{conj(t.D[0]), conj(t.D[1])}}
		}
		out.D2 = make([]DiagTerm2, len(op.D2))
		for i, t := range op.D2 {
			out.D2[i] = DiagTerm2{A: t.A, B: t.B,
				D: [4]complex128{conj(t.D[0]), conj(t.D[1]), conj(t.D[2]), conj(t.D[3])}}
		}
	default:
		panic(fmt.Sprintf("circuit: DaggerFusedOp on kind %d", op.Kind))
	}
	return out
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// daggerGate adjoints one bound passthrough gate (the same transformation
// Circuit.Inverse applies gate-wise).
func daggerGate(g *Gate) *Gate {
	switch g.Kind {
	case KindMeasure, KindReset:
		panic("circuit: cannot dagger measurement/reset")
	case KindUnitary:
		return &Gate{Kind: KindUnitary, Qubits: g.Qubits, Matrix: g.Matrix.Dagger()}
	case KindSX:
		t := Matrix1Q(KindSX, 0)
		m := linalg.New(2, 2)
		m.Set(0, 0, conj(t[0][0]))
		m.Set(0, 1, conj(t[1][0]))
		m.Set(1, 0, conj(t[0][1]))
		m.Set(1, 1, conj(t[1][1]))
		return &Gate{Kind: KindUnitary, Qubits: g.Qubits, Matrix: m}
	}
	nk, negate := DaggerKind(g.Kind)
	ng := &Gate{Kind: nk, Qubits: g.Qubits, Cbit: g.Cbit}
	for _, p := range g.Params {
		if negate {
			ng.Params = append(ng.Params, Bound(-p.Value(nil)))
		} else {
			ng.Params = append(ng.Params, p)
		}
	}
	return ng
}

// GradOp is one executable operation of a gradient program: the forward
// fused op, its precomputed inverse, and — for parametric boundary ops —
// the derivative generator plus the affine chain-rule factor onto the named
// parameter.
type GradOp struct {
	Op    FusedOp
	Inv   FusedOp
	Gen   *Generator // non-nil exactly for parametric boundary ops
	Param int        // index into the plan's sorted parameter names
	Coeff float64    // d(angle)/d(θ_Param) of the gate's affine parameter
}

// GradProgram is a compiled, bound gradient program: the fused forward
// stream annotated for the adjoint reverse sweep.
type GradProgram struct {
	NQubits int
	Ops     []GradOp
}

// GradPlan is the binding-independent differentiation structure of a
// parametric ansatz: a fusion plan in which every gate carrying a symbolic
// parameter stays a standalone differentiable boundary while the
// non-parametric stretches between them fuse as usual. Like FusionPlan it
// is built once per ansatz (the session's spec store, core.ParseCache, keeps
// it beside the ordinary plan) and bound per batch element.
type GradPlan struct {
	src    *Circuit
	plan   *FusionPlan
	params []string
	nPGate int
}

// PlanFusionGrad builds the gradient plan of a (possibly symbolic) circuit.
// Measurements, barriers and resets are stripped: gradients are defined on
// the pre-measurement state.
func PlanFusionGrad(c *Circuit) *GradPlan {
	src := c.StripMeasurements()
	parametric := func(g *Gate) bool {
		for _, p := range g.Params {
			if !p.IsBound() {
				return true
			}
		}
		return false
	}
	nPGate := 0
	for i := range src.Gates {
		if parametric(&src.Gates[i]) {
			if _, ok := GateGenerator(&src.Gates[i]); !ok {
				panic(fmt.Sprintf("circuit: no derivative generator for parametric %s", src.Gates[i].Kind.Name()))
			}
			nPGate++
		}
	}
	return &GradPlan{
		src:    src,
		plan:   planFusion(src, 2, parametric),
		params: src.ParamNames(),
		nPGate: nPGate,
	}
}

// Params returns the sorted parameter names the gradient vector is indexed
// by.
func (p *GradPlan) Params() []string { return p.params }

// NumParamGates returns how many parametric gate occurrences the plan
// differentiates (the per-gate cost unit of the adjoint sweep).
func (p *GradPlan) NumParamGates() int { return p.nPGate }

// Bind resolves the plan's source circuit against a binding and compiles
// the executable gradient program: fused forward ops, precomputed inverses,
// and generator annotations at the parametric boundaries.
func (p *GradPlan) Bind(binding map[string]float64) (*GradProgram, error) {
	bound := p.src.Bind(binding)
	if !bound.IsBound() {
		return nil, fmt.Errorf("circuit: gradient binding leaves params %v unbound", bound.ParamNames())
	}
	idx := make(map[string]int, len(p.params))
	for i, name := range p.params {
		idx[name] = i
	}
	prog := &GradProgram{NQubits: bound.NQubits, Ops: make([]GradOp, 0, len(p.plan.segs))}
	for _, seg := range p.plan.segs {
		var op FusedOp
		var gop GradOp
		switch seg.kind {
		case segPass:
			gi := seg.gates[0]
			g := bound.Gates[gi]
			op = FusedOp{Kind: FusedGate, Gate: &g}
			if src := &p.src.Gates[gi]; len(src.Params) == 1 && !src.Params[0].IsBound() {
				gen, ok := GateGenerator(&g)
				if !ok {
					return nil, fmt.Errorf("circuit: no derivative generator for parametric %s", g.Kind.Name())
				}
				gop.Gen = &gen
				gop.Param = idx[src.Params[0].Name]
				gop.Coeff = src.Params[0].Coeff
			}
		case segDiag:
			op = compileDiagSeg(bound, seg)
		case segDense:
			op = compileDenseSeg(bound, seg)
		}
		gop.Op = op
		gop.Inv = DaggerFusedOp(op)
		prog.Ops = append(prog.Ops, gop)
	}
	return prog, nil
}

// ShiftPlan is the batched parameter-shift form of a parametric ansatz: a
// re-parameterized copy in which every parametric gate occurrence owns a
// fresh parameter name, so angle shifts of a single occurrence become plain
// parameter bindings. One value-plus-gradient evaluation then maps onto one
// batch of bindings of one circuit — exactly the shape RunBatch ships in a
// single round trip, which makes the shift rule usable through any
// execution-only (shot-based or cloud) backend.
type ShiftPlan struct {
	Circuit *Circuit // re-parameterized ansatz (fresh name per occurrence)
	params  []string // original sorted parameter names
	occs    []shiftOcc
	nBind   int
}

// shiftOcc is one parametric gate occurrence of the source ansatz.
type shiftOcc struct {
	fresh string      // fresh parameter name in the re-parameterized circuit
	orig  Param       // original affine parameter (Coeff·θ(Name)+Const)
	param int         // index of Name in params
	rule  []ShiftTerm // per-kind shift rule
	base  int         // index of the first shifted binding pair
}

// PlanParamShift builds the shift plan of a symbolic circuit. Gates with
// bound parameters are left untouched; every unbound occurrence is renamed.
func PlanParamShift(c *Circuit) (*ShiftPlan, error) {
	src := c.StripMeasurements()
	names := map[string]bool{}
	for _, n := range src.ParamNames() {
		names[n] = true
	}
	out := src.Copy()
	plan := &ShiftPlan{Circuit: out, params: src.ParamNames()}
	idx := make(map[string]int, len(plan.params))
	for i, n := range plan.params {
		idx[n] = i
	}
	next := 0
	pos := 1 // binding 0 is the unshifted base evaluation
	for gi := range out.Gates {
		g := &out.Gates[gi]
		if len(g.Params) != 1 || g.Params[0].IsBound() {
			continue
		}
		rule, ok := ShiftRule(g.Kind)
		if !ok {
			return nil, fmt.Errorf("circuit: no parameter-shift rule for %s", g.Kind.Name())
		}
		fresh := fmt.Sprintf("gs%d", next)
		for names[fresh] {
			next++
			fresh = fmt.Sprintf("gs%d", next)
		}
		next++
		plan.occs = append(plan.occs, shiftOcc{
			fresh: fresh,
			orig:  g.Params[0],
			param: idx[g.Params[0].Name],
			rule:  rule,
			base:  pos,
		})
		pos += 2 * len(rule)
		g.Params[0] = Sym(fresh, 1)
	}
	plan.nBind = pos
	return plan, nil
}

// Params returns the sorted original parameter names the assembled gradient
// is indexed by.
func (p *ShiftPlan) Params() []string { return p.params }

// NumBindings returns how many batch elements one value-plus-gradient
// evaluation costs: 1 base + 2 per shift term per parametric occurrence.
func (p *ShiftPlan) NumBindings() int { return p.nBind }

// Bindings expands one point of the original parameter space into the batch
// of re-parameterized bindings: element 0 is the unshifted evaluation, then
// (+,−) pairs per occurrence and shift term, in occurrence order.
func (p *ShiftPlan) Bindings(binding map[string]float64) []map[string]float64 {
	base := make(map[string]float64, len(p.occs))
	for _, o := range p.occs {
		base[o.fresh] = o.orig.Value(binding)
	}
	out := make([]map[string]float64, 0, p.nBind)
	out = append(out, base)
	for _, o := range p.occs {
		for _, t := range o.rule {
			for _, sign := range []float64{1, -1} {
				b := make(map[string]float64, len(base))
				for k, v := range base {
					b[k] = v
				}
				b[o.fresh] += sign * t.Shift
				out = append(out, b)
			}
		}
	}
	return out
}

// Assemble combines the per-binding expectation values (in Bindings order)
// into the objective value and its gradient over Params order, applying the
// affine chain rule of each occurrence.
func (p *ShiftPlan) Assemble(vals []float64) (float64, []float64, error) {
	if len(vals) != p.nBind {
		return 0, nil, fmt.Errorf("circuit: shift assembly got %d values, want %d", len(vals), p.nBind)
	}
	grad := make([]float64, len(p.params))
	for _, o := range p.occs {
		var d float64
		at := o.base
		for _, t := range o.rule {
			d += t.Coeff * (vals[at] - vals[at+1])
			at += 2
		}
		grad[o.param] += o.orig.Coeff * d
	}
	return vals[0], grad, nil
}
