package circuit

import (
	"fmt"
	"sort"

	"qfw/internal/linalg"
)

// Gate fusion (the Aer "fusion" optimization): adjacent gates whose combined
// support stays small are collapsed into one dense unitary, and runs of
// diagonal gates (RZ/P/Z/CZ/CP/CRZ/RZZ — the QAOA/TFIM cost layers) are
// hoisted into a single combined diagonal kernel. The pass is split in two:
//
//   - PlanFusion inspects only the circuit *structure* (kinds and qubits,
//     never parameter values), so one plan serves every binding of a
//     parametric ansatz — the session's spec store (core.ParseCache, keyed
//     by spec content) computes it once per spec.
//   - FusionPlan.Compile takes a bound circuit with the same structure and
//     produces the numeric FusedProgram the state-vector engine executes.
//
// Fusion is exact: fused and unfused execution agree amplitude-for-amplitude
// up to floating-point rounding (see the randomized equivalence tests).

// FusedOpKind selects the kernel a fused operation runs on.
type FusedOpKind int

// Fused operation kinds, ordered roughly by kernel cost.
const (
	FusedGate     FusedOpKind = iota // passthrough: dispatch the original gate
	FusedDense1Q                     // generic 2x2 on Qubits[0]
	FusedDiag1Q                      // diagonal 2x2 (branch-free phase kernel)
	FusedPerm1Q                      // antidiagonal 2x2 (phased pair swap)
	FusedHadamard                    // exact Hadamard (add/sub kernel)
	FusedReal1Q                      // all-real 2x2 (RY-form, half the flops)
	FusedRXLike                      // real diagonal + imaginary offdiagonal 2x2 (RX-form)
	FusedRXPair                      // two independent RX-form rotations in one sweep
	FusedDense2Q                     // generic 4x4 on (Qubits[0] hi, Qubits[1] lo)
	FusedPerm2Q                      // phased permutation 4x4 (no matmul)
	FusedDenseKQ                     // dense 2^k unitary on Qubits
	FusedDiagonal                    // combined diagonal run (D1/D2 terms, one pass)
)

// DiagTerm1 is one single-qubit diagonal factor of a combined diagonal op:
// amplitudes with qubit Q equal to b are multiplied by D[b].
type DiagTerm1 struct {
	Q int
	D [2]complex128
}

// DiagTerm2 is one two-qubit diagonal factor: amplitudes are multiplied by
// D[a<<1|b] where a, b are the values of qubits A and B.
type DiagTerm2 struct {
	A, B int
	D    [4]complex128
}

// FusedOp is one executable operation of a fused program. Only the fields
// relevant to Kind are populated.
type FusedOp struct {
	Kind   FusedOpKind
	Qubits []int // dense ops: most-significant qubit first
	M1     [2][2]complex128
	M      *linalg.Matrix
	Perm   [4]uint8
	Phase  [4]complex128
	RXA    [4]float64 // RX-pair: (c0, v0, v1, c1) of the rotation on Qubits[0]
	RXB    [4]float64 // RX-pair: same for Qubits[1]
	D1     []DiagTerm1
	D2     []DiagTerm2
	Gate   *Gate
}

// FusedProgram is a compiled, bound, executable fused circuit.
type FusedProgram struct {
	NQubits int
	Ops     []FusedOp
}

// segKind classifies a planned segment before numeric compilation.
type segKind int

const (
	segDense segKind = iota
	segDiag
	segPass
)

type fusionSeg struct {
	kind   segKind
	qubits []int // dense segments: ascending qubit order
	gates  []int // indices into the source circuit's gate list, ascending
}

// FusionPlan is the binding-independent fusion structure of a circuit: which
// gates merge into which dense blocks, diagonal runs, and passthroughs.
type FusionPlan struct {
	nqubits int
	ngates  int
	maxK    int
	segs    []fusionSeg
}

// PlanFusion builds a fusion plan merging blocks of up to two qubits — the
// default used by every simulator backend.
func PlanFusion(c *Circuit) *FusionPlan { return PlanFusionK(c, 2) }

// PlanFusionK builds a fusion plan merging blocks of up to maxK qubits
// (clamped to [1, 6]; dense 2^k kernels beyond that lose to unfused
// application).
func PlanFusionK(c *Circuit, maxK int) *FusionPlan {
	return planFusion(c, maxK, nil)
}

// planFusion is the shared planner behind PlanFusionK and PlanFusionGrad.
// A non-nil boundary predicate marks gates that must survive as standalone
// passthrough operations: they neither join dense blocks nor diagonal runs,
// and they flush any open structure they touch — the mechanism the adjoint
// differentiation engine uses to keep parametric gates addressable while
// every non-parametric stretch between them still fuses.
func planFusion(c *Circuit, maxK int, boundary func(g *Gate) bool) *FusionPlan {
	if maxK < 1 {
		maxK = 1
	}
	if maxK > 6 {
		maxK = 6
	}
	p := &FusionPlan{nqubits: c.NQubits, ngates: len(c.Gates), maxK: maxK}

	type block struct {
		qubits []int
		gates  []int
	}
	var open []*block        // creation order
	last := map[int]*block{} // qubit -> owning open block
	closeBlock := func(b *block) {
		for i, ob := range open {
			if ob == b {
				open = append(open[:i], open[i+1:]...)
				break
			}
		}
		for _, q := range b.qubits {
			if last[q] == b {
				delete(last, q)
			}
		}
		p.segs = append(p.segs, fusionSeg{kind: segDense, qubits: b.qubits, gates: b.gates})
	}
	flushTouching := func(qs []int) {
		seen := map[*block]bool{}
		for _, q := range qs {
			if b := last[q]; b != nil {
				seen[b] = true
			}
		}
		// Close in creation order for a deterministic stream.
		var victims []*block
		for _, b := range open {
			if seen[b] {
				victims = append(victims, b)
			}
		}
		for _, b := range victims {
			closeBlock(b)
		}
	}
	flushAll := func() {
		for len(open) > 0 {
			closeBlock(open[0])
		}
	}

	// The open diagonal run: diagonal gates all commute, so a whole cost
	// layer (QAOA's RZZ+RZ sweep, TFIM's trotter coupling layer) accumulates
	// into one run regardless of the dense-block traffic on other qubits.
	// Invariant: the run's support is disjoint from every open dense block —
	// a diagonal gate flushes the dense blocks it touches before joining the
	// run, and a dense gate touching the run's support flushes the run.
	var runGates []int
	runQubits := map[int]bool{}
	flushRun := func() {
		if len(runGates) == 0 {
			return
		}
		p.segs = append(p.segs, fusionSeg{kind: segDiag, gates: runGates})
		runGates = nil
		runQubits = map[int]bool{}
	}
	runTouches := func(qs []int) bool {
		for _, q := range qs {
			if runQubits[q] {
				return true
			}
		}
		return false
	}

	for gi, g := range c.Gates {
		switch g.Kind {
		case KindI:
			continue // identity: no kernel, no fusion barrier
		case KindBarrier:
			if len(g.Qubits) == 0 {
				flushAll()
				flushRun()
			} else {
				flushTouching(g.Qubits)
				if runTouches(g.Qubits) {
					flushRun()
				}
			}
			continue // no kernel to run
		case KindMeasure, KindReset:
			flushTouching(g.Qubits)
			if runTouches(g.Qubits) {
				flushRun()
			}
			p.segs = append(p.segs, fusionSeg{kind: segPass, gates: []int{gi}})
			continue
		}
		if boundary != nil && boundary(&c.Gates[gi]) {
			flushTouching(g.Qubits)
			if runTouches(g.Qubits) {
				flushRun()
			}
			p.segs = append(p.segs, fusionSeg{kind: segPass, gates: []int{gi}})
			continue
		}
		if IsDiagonalKind(g.Kind) {
			// All diagonal gates accumulate into the run: even when one sits
			// inside an open dense block's support, the run absorbs it into
			// its precomputed tables for free, while folding it into the
			// block would downgrade a specialized kernel to a generic one.
			flushTouching(g.Qubits)
			for _, q := range g.Qubits {
				runQubits[q] = true
			}
			runGates = append(runGates, gi)
			continue
		}
		// Dense path: a dense gate on the run's support forces the run out
		// first, so the stream order respects non-commuting pairs.
		if runTouches(g.Qubits) {
			flushRun()
		}
		arity := len(g.Qubits)
		if arity > maxK {
			// Too wide to fuse (CCX/CSWAP at maxK=2, large unitaries):
			// run through the specialized unfused kernels.
			flushTouching(g.Qubits)
			p.segs = append(p.segs, fusionSeg{kind: segPass, gates: []int{gi}})
			continue
		}
		// Collect the open blocks this gate touches and the combined support.
		touched := map[*block]bool{}
		union := map[int]bool{}
		for _, q := range g.Qubits {
			union[q] = true
			if b := last[q]; b != nil {
				touched[b] = true
			}
		}
		for b := range touched {
			for _, q := range b.qubits {
				union[q] = true
			}
		}
		if len(union) > maxK {
			flushTouching(g.Qubits)
			touched = map[*block]bool{}
			union = map[int]bool{}
			for _, q := range g.Qubits {
				union[q] = true
			}
		}
		// Merge the touched blocks (disjoint supports commute, so gate order
		// within the merged block is the original program order).
		var dst *block
		for _, b := range open {
			if touched[b] {
				dst = b
				break
			}
		}
		if dst == nil {
			dst = &block{}
			open = append(open, dst)
		}
		for _, b := range open {
			if b != dst && touched[b] {
				dst.gates = append(dst.gates, b.gates...)
			}
		}
		var rest []*block
		for _, b := range open {
			if b == dst || !touched[b] {
				rest = append(rest, b)
			}
		}
		open = rest
		dst.gates = append(dst.gates, gi)
		sort.Ints(dst.gates)
		dst.qubits = dst.qubits[:0]
		for q := range union {
			dst.qubits = append(dst.qubits, q)
		}
		sort.Ints(dst.qubits)
		for _, q := range dst.qubits {
			last[q] = dst
		}
	}
	flushAll()
	flushRun()
	p.hoistDiagonals()
	p.mergeAdjacentDense()
	return p
}

// IsDiagonalKind reports whether the gate kind is diagonal in the
// computational basis for every parameter value.
func IsDiagonalKind(k Kind) bool {
	switch k {
	case KindI, KindZ, KindS, KindSdg, KindT, KindTdg, KindRZ, KindP,
		KindCZ, KindCRZ, KindCP, KindRZZ:
		return true
	}
	return false
}

// hoistDiagonals merges maximal runs of consecutive diagonal segments into
// one combined diagonal op — diagonal gates all commute, so runs separated
// only by a flush barrier still become a single pass over the amplitudes.
func (p *FusionPlan) hoistDiagonals() {
	var out []fusionSeg
	for _, s := range p.segs {
		if s.kind == segDiag && len(out) > 0 && out[len(out)-1].kind == segDiag {
			prev := &out[len(out)-1]
			prev.gates = append(prev.gates, s.gates...)
			continue
		}
		out = append(out, s)
	}
	p.segs = out
}

// mergeAdjacentDense absorbs a neighbouring dense segment into the previous
// one when the combined support does not grow beyond the larger of the two
// (e.g. a 1q rotation following a 2q block on one of its qubits). Adjacent
// segments have nothing between them in the stream, so merging preserves
// program order. Support-growing merges (two disjoint 1q gates into a 4x4)
// are deliberately not taken: on the serial kernels two cheap passes beat
// one generic 4x4 pass.
func (p *FusionPlan) mergeAdjacentDense() {
	var out []fusionSeg
	for _, s := range p.segs {
		if s.kind == segDense && len(out) > 0 {
			prev := &out[len(out)-1]
			if prev.kind == segDense {
				union := map[int]bool{}
				for _, q := range prev.qubits {
					union[q] = true
				}
				for _, q := range s.qubits {
					union[q] = true
				}
				limit := len(prev.qubits)
				if len(s.qubits) > limit {
					limit = len(s.qubits)
				}
				if len(union) <= limit && len(union) <= p.maxK {
					prev.gates = append(prev.gates, s.gates...)
					sort.Ints(prev.gates)
					prev.qubits = prev.qubits[:0]
					for q := range union {
						prev.qubits = append(prev.qubits, q)
					}
					sort.Ints(prev.qubits)
					continue
				}
			}
		}
		out = append(out, s)
	}
	p.segs = out
}

// NumOps returns the number of fused operations the plan compiles to.
func (p *FusionPlan) NumOps() int { return len(p.segs) }

// SegmentKind classifies an exported fusion segment.
type SegmentKind int

// Exported segment kinds.
const (
	SegDense SegmentKind = iota // gates merge into one dense unitary
	SegDiag                     // commuting diagonal run
	SegPass                     // standalone passthrough gate
)

// SegmentInfo is the exported structural view of one planned fusion segment:
// which source gates it covers and which qubits it touches, with no numeric
// content. Engines that cannot execute FusedPrograms directly (the MPS
// compiler) build their own schedules from this structure, so fusion
// planning stays a single shared pass.
type SegmentInfo struct {
	Kind   SegmentKind
	Qubits []int // merged support, ascending
	Gates  []int // indices into the source circuit's gate list, ascending
}

// Segments returns the plan's segment structure in stream order. The result
// depends only on circuit structure (like the plan itself), so one segment
// list serves every binding of a parametric ansatz.
func (p *FusionPlan) Segments(c *Circuit) []SegmentInfo {
	if c != nil && (c.NQubits != p.nqubits || len(c.Gates) != p.ngates) {
		panic(fmt.Sprintf("circuit: fusion plan built for %d gates on %d qubits, got %d gates on %d",
			p.ngates, p.nqubits, len(c.Gates), c.NQubits))
	}
	out := make([]SegmentInfo, len(p.segs))
	for i, s := range p.segs {
		info := SegmentInfo{Gates: append([]int(nil), s.gates...)}
		switch s.kind {
		case segDense:
			info.Kind = SegDense
			info.Qubits = append([]int(nil), s.qubits...)
		case segDiag:
			info.Kind = SegDiag
			if c != nil {
				support := map[int]bool{}
				for _, gi := range s.gates {
					for _, q := range c.Gates[gi].Qubits {
						support[q] = true
					}
				}
				for q := range support {
					info.Qubits = append(info.Qubits, q)
				}
				sort.Ints(info.Qubits)
			}
		case segPass:
			info.Kind = SegPass
			if c != nil {
				info.Qubits = append([]int(nil), c.Gates[s.gates[0]].Qubits...)
			}
		}
		out[i] = info
	}
	return out
}

// SegmentUnitary multiplies the bound gates of a dense segment into one
// unitary in the 2^k basis of the qubit list qs (most significant first).
// It is the numeric half of a SegDense segment, shared by FusionPlan.Compile
// and the MPS schedule compiler.
func SegmentUnitary(c *Circuit, gates []int, qs []int) *linalg.Matrix {
	dim := 1 << uint(len(qs))
	u := linalg.Identity(dim)
	for _, gi := range gates {
		g := c.Gates[gi]
		if g.Kind == KindI {
			continue
		}
		u = linalg.MatMul(expandGate(g, qs), u)
	}
	return u
}

// DiagLayout returns the coalesced per-qubit and per-pair supports of a
// diagonal run, in exactly the order SegmentDiagonal emits its factor
// tables (pairs normalized to A > B). The layout depends only on gate kinds
// and qubits, so a binding-independent schedule can allocate its slots from
// an unbound circuit.
func DiagLayout(c *Circuit, gates []int) (singles []int, pairs [][2]int) {
	idx1 := map[int]bool{}
	idx2 := map[[2]int]bool{}
	for _, gi := range gates {
		g := c.Gates[gi]
		switch g.Kind {
		case KindI:
		case KindZ, KindS, KindSdg, KindT, KindTdg, KindRZ, KindP:
			if !idx1[g.Qubits[0]] {
				idx1[g.Qubits[0]] = true
				singles = append(singles, g.Qubits[0])
			}
		case KindCZ, KindCRZ, KindCP, KindRZZ:
			a, b := g.Qubits[0], g.Qubits[1]
			if a < b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if !idx2[key] {
				idx2[key] = true
				pairs = append(pairs, key)
			}
		default:
			panic("circuit: DiagLayout on non-diagonal gate " + g.Kind.Name())
		}
	}
	return singles, pairs
}

// SegmentDiagonal folds the bound diagonal gates of a run into coalesced
// factor tables, in DiagLayout order (pairs normalized to A > B, D indexed
// by the higher qubit as the most significant bit).
func SegmentDiagonal(c *Circuit, gates []int) ([]DiagTerm1, []DiagTerm2) {
	op := compileDiagSeg(c, fusionSeg{kind: segDiag, gates: gates})
	return op.D1, op.D2
}

// Compile binds the plan against a fully bound circuit with the same
// structure (same gate kinds and qubits in the same order — any Bind of the
// circuit the plan was built from) and returns the executable program.
func (p *FusionPlan) Compile(c *Circuit) *FusedProgram {
	prog := p.CompileSeq(c)
	pairRXOps(prog)
	return prog
}

// CompileSeq compiles like Compile but keeps exactly one operation per
// planned segment: no cross-segment RX pairing, so op i of the program
// corresponds to segment i of the plan. This is the form the cache-blocked
// staged executor runs — its tile schedule (PlanTileStages) addresses ops by
// segment index, and pairing across a stage boundary would fuse two ops that
// execute under different layouts.
func (p *FusionPlan) CompileSeq(c *Circuit) *FusedProgram {
	if c.NQubits != p.nqubits || len(c.Gates) != p.ngates {
		panic(fmt.Sprintf("circuit: fusion plan built for %d gates on %d qubits, got %d gates on %d",
			p.ngates, p.nqubits, len(c.Gates), c.NQubits))
	}
	prog := &FusedProgram{NQubits: c.NQubits, Ops: make([]FusedOp, 0, len(p.segs))}
	for _, seg := range p.segs {
		switch seg.kind {
		case segPass:
			g := c.Gates[seg.gates[0]]
			prog.Ops = append(prog.Ops, FusedOp{Kind: FusedGate, Gate: &g})
		case segDiag:
			prog.Ops = append(prog.Ops, compileDiagSeg(c, seg))
		case segDense:
			prog.Ops = append(prog.Ops, compileDenseSeg(c, seg))
		}
	}
	return prog
}

// rxParams extracts the (c0, v0, v1, c1) parameters of an RX-form matrix.
func rxParams(m [2][2]complex128) [4]float64 {
	return [4]float64{real(m[0][0]), imag(m[0][1]), imag(m[1][0]), real(m[1][1])}
}

// pairRXOps merges adjacent RX-form ops on distinct qubits (the mixer layers
// of QAOA/TFIM) into one two-stage quad sweep — the same flops in half the
// memory passes. Adjacent ops have nothing between them in the stream, and
// rotations on distinct qubits commute, so the merge is order-preserving.
func pairRXOps(prog *FusedProgram) {
	out := prog.Ops[:0]
	for i := 0; i < len(prog.Ops); i++ {
		op := prog.Ops[i]
		if op.Kind == FusedRXLike && i+1 < len(prog.Ops) {
			next := &prog.Ops[i+1]
			if next.Kind == FusedRXLike && next.Qubits[0] != op.Qubits[0] {
				out = append(out, FusedOp{
					Kind:   FusedRXPair,
					Qubits: []int{op.Qubits[0], next.Qubits[0]},
					RXA:    rxParams(op.M1),
					RXB:    rxParams(next.M1),
				})
				i++
				continue
			}
		}
		out = append(out, op)
	}
	prog.Ops = out
}

// FuseBound is the convenience path for one-shot bound circuits:
// PlanFusion + Compile.
func FuseBound(c *Circuit) *FusedProgram { return PlanFusion(c).Compile(c) }

// diagFactors returns the diagonal factor table of a bound diagonal gate.
func diagFactors(g Gate) (one *DiagTerm1, two *DiagTerm2) {
	var theta float64
	if g.Kind.NumParams() == 1 {
		theta = g.Angle()
	}
	switch g.Kind {
	case KindZ, KindS, KindSdg, KindT, KindTdg, KindRZ, KindP:
		m := Matrix1Q(g.Kind, theta)
		return &DiagTerm1{Q: g.Qubits[0], D: [2]complex128{m[0][0], m[1][1]}}, nil
	case KindCZ, KindCRZ, KindCP, KindRZZ:
		m := Matrix2Q(g.Kind, theta)
		return nil, &DiagTerm2{
			A: g.Qubits[0], B: g.Qubits[1],
			D: [4]complex128{m.At(0, 0), m.At(1, 1), m.At(2, 2), m.At(3, 3)},
		}
	}
	panic("circuit: diagFactors on non-diagonal gate " + g.Kind.Name())
}

// compileDiagSeg folds every diagonal gate of the run into per-qubit and
// per-pair factor tables, coalescing repeated supports.
func compileDiagSeg(c *Circuit, seg fusionSeg) FusedOp {
	op := FusedOp{Kind: FusedDiagonal}
	idx1 := map[int]int{}
	idx2 := map[[2]int]int{}
	for _, gi := range seg.gates {
		g := c.Gates[gi]
		if g.Kind == KindI {
			continue
		}
		t1, t2 := diagFactors(g)
		if t1 != nil {
			if i, ok := idx1[t1.Q]; ok {
				op.D1[i].D[0] *= t1.D[0]
				op.D1[i].D[1] *= t1.D[1]
			} else {
				idx1[t1.Q] = len(op.D1)
				op.D1 = append(op.D1, *t1)
			}
			continue
		}
		// Normalize pair orientation to A > B.
		if t2.A < t2.B {
			t2.A, t2.B = t2.B, t2.A
			t2.D[1], t2.D[2] = t2.D[2], t2.D[1]
		}
		key := [2]int{t2.A, t2.B}
		if i, ok := idx2[key]; ok {
			for v := 0; v < 4; v++ {
				op.D2[i].D[v] *= t2.D[v]
			}
		} else {
			idx2[key] = len(op.D2)
			op.D2 = append(op.D2, *t2)
		}
	}
	return op
}

// boundMatrix returns the dense matrix of a bound gate in the basis with
// g.Qubits[0] as the most significant bit.
func boundMatrix(g Gate) *linalg.Matrix {
	var theta float64
	if g.Kind.NumParams() == 1 {
		theta = g.Angle()
	}
	switch {
	case g.Kind == KindUnitary:
		return g.Matrix
	case g.Kind == KindCCX:
		m := linalg.Identity(8)
		m.Set(6, 6, 0)
		m.Set(7, 7, 0)
		m.Set(6, 7, 1)
		m.Set(7, 6, 1)
		return m
	case g.Kind == KindCSWAP:
		m := linalg.Identity(8)
		m.Set(5, 5, 0)
		m.Set(6, 6, 0)
		m.Set(5, 6, 1)
		m.Set(6, 5, 1)
		return m
	case g.Kind.NumQubits() == 2:
		return Matrix2Q(g.Kind, theta)
	case g.Kind.NumQubits() == 1:
		return FromMat2(Matrix1Q(g.Kind, theta))
	}
	panic("circuit: boundMatrix on " + g.Kind.Name())
}

// expandGate lifts a gate matrix into the 2^k basis of the segment qubit
// list qs (most significant first).
func expandGate(g Gate, qs []int) *linalg.Matrix {
	k := len(qs)
	dim := 1 << uint(k)
	bitOf := map[int]int{}
	for t, q := range qs {
		bitOf[q] = k - 1 - t
	}
	m := boundMatrix(g)
	gm := len(g.Qubits)
	var gmask int
	for _, q := range g.Qubits {
		gmask |= 1 << uint(bitOf[q])
	}
	sub := func(full int) int {
		v := 0
		for t, q := range g.Qubits {
			if full&(1<<uint(bitOf[q])) != 0 {
				v |= 1 << uint(gm-1-t)
			}
		}
		return v
	}
	out := linalg.New(dim, dim)
	for r := 0; r < dim; r++ {
		rOut := r &^ gmask
		rSub := sub(r)
		for cs := 0; cs < (1 << uint(gm)); cs++ {
			v := m.At(rSub, cs)
			if v == 0 {
				continue
			}
			// Rebuild the full column index: fixed bits from r, gate bits cs.
			col := rOut
			for t, q := range g.Qubits {
				if cs&(1<<uint(gm-1-t)) != 0 {
					col |= 1 << uint(bitOf[q])
				}
			}
			out.Set(r, col, v)
		}
	}
	return out
}

// compileDenseSeg multiplies the segment's gates into one unitary and picks
// the cheapest kernel that implements it exactly.
func compileDenseSeg(c *Circuit, seg fusionSeg) FusedOp {
	if len(seg.gates) == 1 && len(c.Gates[seg.gates[0]].Qubits) > 1 {
		// A lone multi-qubit gate runs faster through its specialized
		// unfused kernel (compressed-index controlled / swap paths).
		g := c.Gates[seg.gates[0]]
		return FusedOp{Kind: FusedGate, Gate: &g}
	}
	// Segment basis: most significant qubit first.
	qs := make([]int, len(seg.qubits))
	for i, q := range seg.qubits {
		qs[len(qs)-1-i] = q
	}
	return classifyDense(SegmentUnitary(c, seg.gates, qs), qs)
}

// GateMatrix returns the dense matrix of a bound gate in the basis with
// g.Qubits[0] as the most significant bit — the exported form of the
// compiler's internal lowering, used by the staged executor to turn
// passthrough gates into tile-local kernels.
func GateMatrix(g Gate) *linalg.Matrix { return boundMatrix(g) }

// ClassifyUnitary picks the cheapest exact kernel for a dense unitary over
// the qubit list qs (most significant first) — the exported form of the
// fusion compiler's kernel classification. Structure is detected with exact
// zero tests, so a misdetection is impossible: at worst a generic kernel is
// selected.
func ClassifyUnitary(u *linalg.Matrix, qs []int) FusedOp { return classifyDense(u, qs) }

// classifyDense selects the kernel for a fused dense unitary: diagonal and
// (phased) permutation structure is detected with exact zero tests, so a
// misdetection is impossible — at worst a generic kernel runs.
func classifyDense(u *linalg.Matrix, qs []int) FusedOp {
	k := len(qs)
	dim := 1 << uint(k)
	if k == 1 {
		m1 := [2][2]complex128{{u.At(0, 0), u.At(0, 1)}, {u.At(1, 0), u.At(1, 1)}}
		switch {
		case m1[0][1] == 0 && m1[1][0] == 0:
			return FusedOp{Kind: FusedDiag1Q, Qubits: qs, M1: m1}
		case m1[0][0] == 0 && m1[1][1] == 0:
			return FusedOp{Kind: FusedPerm1Q, Qubits: qs, M1: m1}
		}
		if m1 == Matrix1Q(KindH, 0) {
			return FusedOp{Kind: FusedHadamard, Qubits: qs}
		}
		allReal := true
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				if imag(m1[r][c]) != 0 {
					allReal = false
				}
			}
		}
		if allReal {
			return FusedOp{Kind: FusedReal1Q, Qubits: qs, M1: m1}
		}
		if imag(m1[0][0]) == 0 && imag(m1[1][1]) == 0 &&
			real(m1[0][1]) == 0 && real(m1[1][0]) == 0 {
			return FusedOp{Kind: FusedRXLike, Qubits: qs, M1: m1}
		}
		return FusedOp{Kind: FusedDense1Q, Qubits: qs, M1: m1}
	}
	// Phased permutation: exactly one nonzero per row and per column.
	perm := make([]int, dim)
	phase := make([]complex128, dim)
	isPerm := true
	colUsed := make([]bool, dim)
	for r := 0; r < dim && isPerm; r++ {
		nz := -1
		for c := 0; c < dim; c++ {
			if u.At(r, c) != 0 {
				if nz >= 0 {
					isPerm = false
					break
				}
				nz = c
			}
		}
		if nz < 0 || (nz >= 0 && colUsed[nz]) {
			isPerm = false
			break
		}
		colUsed[nz] = true
		perm[r] = nz
		phase[r] = u.At(r, nz)
	}
	if isPerm && k == 2 {
		diag := true
		for r := 0; r < dim; r++ {
			if perm[r] != r {
				diag = false
				break
			}
		}
		if diag {
			// Fused block collapsed to a diagonal (e.g. RZ·RZ across a CZ).
			return FusedOp{Kind: FusedDiagonal, D2: []DiagTerm2{{
				A: qs[0], B: qs[1],
				D: [4]complex128{phase[0], phase[1], phase[2], phase[3]},
			}}}
		}
		op := FusedOp{Kind: FusedPerm2Q, Qubits: qs}
		for r := 0; r < 4; r++ {
			op.Perm[r] = uint8(perm[r])
			op.Phase[r] = phase[r]
		}
		return op
	}
	if k == 2 {
		return FusedOp{Kind: FusedDense2Q, Qubits: qs, M: u}
	}
	return FusedOp{Kind: FusedDenseKQ, Qubits: qs, M: u}
}
