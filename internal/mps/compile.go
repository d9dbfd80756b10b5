package mps

import (
	"fmt"
	"runtime"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/linalg"
)

// The compiled MPS path builds a binding-independent execution schedule
// once per circuit structure and replays it per parameter binding:
//
//   - the circuit is transpiled to the MPS gate set and fusion-planned with
//     circuit.PlanFusion, so runs of single-qubit gates and <=2q blocks
//     apply as single dense updates and whole diagonal layers (the
//     TFIM/QAOA cost sweeps) collapse into coalesced factor tables —
//     single-qubit diagonal factors cost a pure scale, no SVD at all;
//   - non-adjacent two-qubit operations are routed with a
//     persistent-permutation swap schedule planned once per spec: a moved
//     qubit stays where routing left it and later gates (and sampling)
//     consult the permutation, eliminating the per-gate swap-back chains of
//     the seed engine — a ring-QAOA closing edge costs its swap chain once
//     per circuit instead of twice per layer;
//   - per binding, only the numeric payloads (2x2/4x4 blocks and diagonal
//     factor tables) are recomputed; the step stream, routing, and site
//     layout are shared by every element of a batch.

// Options configure one compiled execution.
type Options struct {
	MaxBond int     // bond-dimension cap (0 = DefaultMaxBond)
	Cutoff  float64 // relative singular-value cutoff (0 = 1e-12)
	Workers int     // kernel parallelism within two-site updates and large samples
}

type stepKind uint8

const (
	stepDense1 stepKind = iota // dense 2x2 at Site
	stepDense2                 // dense 4x4 at (Site, Site+1)
	stepSwap                   // routing swap at (Site, Site+1)
	stepDiag1                  // diagonal scale at Site
	stepDiag2                  // diagonal pair gate at (Site, Site+1)
)

// step is one executable schedule entry. Two-site payloads are stored with
// the higher-indexed logical qubit as the most significant bit; flip marks
// steps whose left chain position holds the lower qubit instead.
type step struct {
	kind stepKind
	site int
	slot int
	flip bool
}

// Compiled is the reusable MPS execution schedule of one circuit structure.
// It is immutable after CompileCircuit and safe for concurrent Execute
// calls (the batch path runs elements in parallel against one schedule).
type Compiled struct {
	// N is the qubit count; Swaps the number of routed swaps the schedule
	// contains (the per-gate path would pay roughly twice per long-range
	// gate occurrence).
	N     int
	Swaps int

	base    *circuit.Circuit // transpiled body; may carry symbolic params
	params  []string
	segs    []circuit.SegmentInfo
	steps   []step
	qubitAt []int // final chain position -> logical qubit
	n1, n2  int   // dense payload slot counts
	d1, d2  int   // diagonal payload slot counts
}

// CompileCircuit builds the execution schedule of a circuit (bound or
// parametric). Measurements are stripped — sampling happens on the final
// state — and unsupported gates are transpiled to the MPS gate set once,
// here, instead of once per binding.
func CompileCircuit(c *circuit.Circuit) (*Compiled, error) {
	tc := circuit.Transpile(c.StripMeasurements(), MPSGateSet())
	plan := circuit.PlanFusion(tc)
	segs := plan.Segments(tc)
	cc := &Compiled{N: c.NQubits, base: tc, params: tc.ParamNames(), segs: segs}

	siteOf := make([]int, cc.N) // logical qubit -> chain position
	cc.qubitAt = make([]int, cc.N)
	for q := range siteOf {
		siteOf[q] = q
		cc.qubitAt[q] = q
	}
	center := 0 // planned orthogonality-center position after each 2q step
	// ensureAdjacent routes qubits x and y next to each other by swapping
	// the lower chain position upward, returns the left position, and
	// leaves the permutation wherever routing ended.
	ensureAdjacent := func(x, y int) int {
		lo, hi := siteOf[x], siteOf[y]
		if lo > hi {
			lo, hi = hi, lo
		}
		for pos := lo; pos+1 < hi; pos++ {
			cc.steps = append(cc.steps, step{kind: stepSwap, site: pos})
			cc.Swaps++
			a, b := cc.qubitAt[pos], cc.qubitAt[pos+1]
			cc.qubitAt[pos], cc.qubitAt[pos+1] = b, a
			siteOf[a], siteOf[b] = pos+1, pos
		}
		center = hi // each two-site update leaves the center on its right site
		return hi - 1
	}

	for _, seg := range segs {
		switch seg.Kind {
		case circuit.SegDense:
			switch len(seg.Qubits) {
			case 1:
				cc.steps = append(cc.steps, step{kind: stepDense1, site: siteOf[seg.Qubits[0]], slot: cc.n1})
				cc.n1++
			case 2:
				q0, q1 := seg.Qubits[0], seg.Qubits[1] // ascending
				left := ensureAdjacent(q0, q1)
				cc.steps = append(cc.steps, step{
					kind: stepDense2, site: left, slot: cc.n2,
					flip: cc.qubitAt[left] != q1,
				})
				cc.n2++
			default:
				return nil, fmt.Errorf("mps: dense fusion block on %d qubits not executable; transpile first", len(seg.Qubits))
			}
		case circuit.SegDiag:
			singles, pairs := circuit.DiagLayout(tc, seg.Gates)
			for _, q := range singles {
				cc.steps = append(cc.steps, step{kind: stepDiag1, site: siteOf[q], slot: cc.d1})
				cc.d1++
			}
			// Diagonal factors all commute, so the scheduler may apply the
			// run's pairs in any order: route greedily, weighing the swap
			// chain a pair needs (each swap is an SVD) against the gauge
			// walk to reach it (each shift is a cheaper QR). On ring
			// topologies a whole coupling layer rides the permutation the
			// previous layer left behind instead of re-routing the closing
			// edge from scratch; on lines, successive Trotter layers sweep
			// boustrophedon instead of re-walking the center across the
			// chain. Slots stay in DiagLayout order, matching the numeric
			// payload tables.
			remaining := make([]int, len(pairs))
			for i := range remaining {
				remaining[i] = i
			}
			for len(remaining) > 0 {
				best, bestScore := 0, 1<<30
				for ri, pi := range remaining {
					lo, hi := siteOf[pairs[pi][0]], siteOf[pairs[pi][1]]
					if lo > hi {
						lo, hi = hi, lo
					}
					walk := center - lo
					if walk < 0 {
						walk = -walk
					}
					score := 3*(hi-lo-1) + walk
					if score < bestScore {
						best, bestScore = ri, score
					}
				}
				pi := remaining[best]
				remaining = append(remaining[:best], remaining[best+1:]...)
				pr := pairs[pi] // (A, B) with A > B
				left := ensureAdjacent(pr[0], pr[1])
				cc.steps = append(cc.steps, step{
					kind: stepDiag2, site: left, slot: cc.d2 + pi,
					flip: cc.qubitAt[left] != pr[0],
				})
			}
			cc.d2 += len(pairs)
		case circuit.SegPass:
			g := tc.Gates[seg.Gates[0]]
			switch g.Kind {
			case circuit.KindMeasure, circuit.KindBarrier, circuit.KindReset, circuit.KindI:
				// No kernel (measurements were stripped anyway).
			default:
				return nil, fmt.Errorf("mps: unsupported passthrough gate %s on %d qubits; transpile first", g.Kind.Name(), len(g.Qubits))
			}
		}
	}
	return cc, nil
}

// Params returns the schedule's unbound parameter names (sorted).
func (cc *Compiled) Params() []string { return append([]string(nil), cc.params...) }

// NumSteps returns the executable step count of the schedule.
func (cc *Compiled) NumSteps() int { return len(cc.steps) }

// payload holds the numeric content of one binding: matrices and diagonal
// factor tables, indexed by the schedule's slot numbers.
type payload struct {
	m1 [][2][2]complex128
	m2 []*linalg.Matrix
	d1 [][2]complex128
	d2 [][4]complex128
}

// bindPayload walks the segments in schedule order and computes the numeric
// payloads of one bound circuit. Slot order matches CompileCircuit exactly:
// both walk the same segment stream and DiagLayout/SegmentDiagonal share
// their coalescing order.
func (cc *Compiled) bindPayload(bound *circuit.Circuit) *payload {
	pay := &payload{
		m1: make([][2][2]complex128, 0, cc.n1),
		m2: make([]*linalg.Matrix, 0, cc.n2),
		d1: make([][2]complex128, 0, cc.d1),
		d2: make([][4]complex128, 0, cc.d2),
	}
	for _, seg := range cc.segs {
		switch seg.Kind {
		case circuit.SegDense:
			switch len(seg.Qubits) {
			case 1:
				u := circuit.SegmentUnitary(bound, seg.Gates, seg.Qubits)
				pay.m1 = append(pay.m1, [2][2]complex128{
					{u.At(0, 0), u.At(0, 1)},
					{u.At(1, 0), u.At(1, 1)}})
			case 2:
				// Higher qubit as the most significant bit.
				qs := []int{seg.Qubits[1], seg.Qubits[0]}
				pay.m2 = append(pay.m2, circuit.SegmentUnitary(bound, seg.Gates, qs))
			}
		case circuit.SegDiag:
			t1, t2 := circuit.SegmentDiagonal(bound, seg.Gates)
			for _, t := range t1 {
				pay.d1 = append(pay.d1, t.D)
			}
			for _, t := range t2 {
				pay.d2 = append(pay.d2, t.D)
			}
		}
	}
	return pay
}

// Execute runs the schedule under one parameter binding (nil for bound
// circuits) and returns the final state. The returned MPS carries the
// routed chain permutation in QubitOfSite; Sample/Amplitudes/expectations
// resolve it transparently.
func (cc *Compiled) Execute(binding map[string]float64, opt Options) (*MPS, error) {
	bound := cc.base
	if len(cc.params) > 0 {
		bound = cc.base.Bind(binding)
		if !bound.IsBound() {
			return nil, fmt.Errorf("mps: binding leaves params %v unbound", bound.ParamNames())
		}
	}
	pay := cc.bindPayload(bound)
	m := New(cc.N, opt.MaxBond, opt.Cutoff)
	m.Workers = opt.Workers
	for _, st := range cc.steps {
		switch st.kind {
		case stepDense1:
			m.Apply1Q(pay.m1[st.slot], st.site)
		case stepDiag1:
			m.ApplyDiag1Q(pay.d1[st.slot], st.site)
		case stepSwap:
			m.swapAdjacent(st.site)
		case stepDense2:
			g := pay.m2[st.slot]
			if st.flip {
				g = permute2Q(g)
			}
			m.ApplyTwoAdjacent(g, st.site)
		case stepDiag2:
			d := pay.d2[st.slot]
			if st.flip {
				d[1], d[2] = d[2], d[1]
			}
			m.ApplyDiagTwoAdjacent(d, st.site)
		}
	}
	// Copied, never aliased: the schedule is cached and shared across batch
	// elements, so a caller mutating the exported field must not be able to
	// corrupt the routing table of its siblings.
	m.QubitOfSite = append([]int(nil), cc.qubitAt...)
	return m, nil
}

// RunBatch executes the schedule under K bindings, fanning elements across
// a core-bounded worker set. Every element shares the one compiled
// schedule; results come back in element order. Elements run with
// Workers=1 — the parallelism budget goes to the fan-out, matching the
// batch pipeline's behaviour on the state-vector engines.
func (cc *Compiled) RunBatch(bindings []map[string]float64, opt Options) ([]*MPS, error) {
	out := make([]*MPS, len(bindings))
	errs := make([]error, len(bindings))
	elemOpt := opt
	elemOpt.Workers = 1
	core.FanOut(len(bindings), runtime.GOMAXPROCS(0), func(i int) {
		out[i], errs[i] = cc.Execute(bindings[i], elemOpt)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mps: batch element %d: %w", i, err)
		}
	}
	return out, nil
}
