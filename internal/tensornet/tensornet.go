// Package tensornet implements a gate-tensor-network circuit simulator in
// the style of QTensor/qtree: the circuit becomes a network of small tensors
// over wire variables, which is contracted by greedy bucket elimination.
// The framework uses it — as the paper does QTensor — for full-state
// contraction, where the final open indexes make the cost grow as 2^n; the
// engine is excellent for shallow, tree-like circuits and degrades sharply
// on deep or densely connected ones (visible past ~24 qubits in Fig. 3).
//
// Variable slicing (fixing a subset of the open output variables) provides
// the distribution mechanism used by the qtensor backend's MPI mode: each
// rank contracts a different slice of the output space.
package tensornet

import (
	"fmt"
	"math/rand"
	"sort"

	"qfw/internal/circuit"
	"qfw/internal/linalg"
)

// Tensor is a dense tensor with one binary index per label.
type Tensor struct {
	Labels []int
	Data   []complex128
}

// NewTensor allocates a tensor over the given labels (dims all 2).
func NewTensor(labels []int) *Tensor {
	return &Tensor{Labels: append([]int(nil), labels...), Data: make([]complex128, 1<<uint(len(labels)))}
}

// Rank returns the number of indexes.
func (t *Tensor) Rank() int { return len(t.Labels) }

// Network is a tensor network built from a circuit. Out[i] is the open
// output variable of qubit i.
type Network struct {
	NQubits int
	Tensors []*Tensor
	Out     []int

	// PeakRank records the largest intermediate tensor rank seen during
	// contraction — the standard cost metric for TN simulators.
	PeakRank int

	nextVar int
}

// MaxOpenQubits caps full-state contraction (2^n amplitudes); beyond this the
// engine reports infeasibility, mirroring the walltime/memory cutoffs the
// paper marks as missing points.
const MaxOpenQubits = 26

// MaxIntermediateRank caps the rank of intermediate tensors produced during
// elimination. Deep or densely connected circuits drive the effective
// treewidth — and thus intermediate tensor sizes — exponentially high; real
// TN simulators hit the same wall (the paper: QTensor "slows sharply on
// deeper or densely connected topologies").
const MaxIntermediateRank = 24

// Build converts a bound circuit into a tensor network. Measurements and
// barriers are ignored (terminal sampling happens after contraction).
func Build(c *circuit.Circuit) (*Network, error) {
	if !c.IsBound() {
		return nil, fmt.Errorf("tensornet: circuit has unbound parameters")
	}
	net := &Network{NQubits: c.NQubits}
	wire := make([]int, c.NQubits)
	for q := range wire {
		v := net.fresh()
		wire[q] = v
		// |0> initial vector.
		t := NewTensor([]int{v})
		t.Data[0] = 1
		net.Tensors = append(net.Tensors, t)
	}
	tc := circuit.Transpile(c.StripMeasurements(), tnGateSet())
	for _, g := range tc.Gates {
		switch g.Kind.NumQubits() {
		case 1:
			if g.Kind == circuit.KindI {
				continue
			}
			var m [2][2]complex128
			if g.Kind == circuit.KindUnitary {
				m = [2][2]complex128{
					{g.Matrix.At(0, 0), g.Matrix.At(0, 1)},
					{g.Matrix.At(1, 0), g.Matrix.At(1, 1)}}
			} else {
				var theta float64
				if g.Kind.NumParams() == 1 {
					theta = g.Angle()
				}
				m = circuit.Matrix1Q(g.Kind, theta)
			}
			q := g.Qubits[0]
			in := wire[q]
			out := net.fresh()
			t := NewTensor([]int{out, in})
			for o := 0; o < 2; o++ {
				for i := 0; i < 2; i++ {
					t.Data[o*2+i] = m[o][i]
				}
			}
			net.Tensors = append(net.Tensors, t)
			wire[q] = out
		case 2:
			var m *linalg.Matrix
			if g.Kind == circuit.KindUnitary {
				m = g.Matrix
			} else {
				var theta float64
				if g.Kind.NumParams() == 1 {
					theta = g.Angle()
				}
				m = circuit.Matrix2Q(g.Kind, theta)
			}
			a, b := g.Qubits[0], g.Qubits[1]
			ina, inb := wire[a], wire[b]
			outa, outb := net.fresh(), net.fresh()
			t := NewTensor([]int{outa, outb, ina, inb})
			for oa := 0; oa < 2; oa++ {
				for ob := 0; ob < 2; ob++ {
					for ia := 0; ia < 2; ia++ {
						for ib := 0; ib < 2; ib++ {
							t.Data[((oa*2+ob)*2+ia)*2+ib] = m.At(oa*2+ob, ia*2+ib)
						}
					}
				}
			}
			net.Tensors = append(net.Tensors, t)
			wire[a], wire[b] = outa, outb
		default:
			return nil, fmt.Errorf("tensornet: gate %s survived transpile", g.Kind.Name())
		}
	}
	net.Out = wire
	return net, nil
}

func tnGateSet() circuit.GateSet {
	set := circuit.BasicGateSet()
	set[circuit.KindSWAP] = true
	set[circuit.KindRZZ] = true
	set[circuit.KindRXX] = true
	set[circuit.KindUnitary] = true
	return set
}

func (n *Network) fresh() int {
	v := n.nextVar
	n.nextVar++
	return v
}

// Slice returns a copy of the network with the given output variables fixed
// to bit values: tensors are projected, and the fixed variables disappear
// from the open set. This is the qtree-style slicing used for distribution.
func (n *Network) Slice(fixed map[int]int) *Network {
	out := &Network{NQubits: n.NQubits, Out: append([]int(nil), n.Out...), nextVar: n.nextVar}
	for _, t := range n.Tensors {
		out.Tensors = append(out.Tensors, project(t, fixed))
	}
	return out
}

// project fixes any labels of t present in fixed.
func project(t *Tensor, fixed map[int]int) *Tensor {
	var keep []int
	hit := false
	for _, l := range t.Labels {
		if _, ok := fixed[l]; ok {
			hit = true
		} else {
			keep = append(keep, l)
		}
	}
	if !hit {
		cp := NewTensor(t.Labels)
		copy(cp.Data, t.Data)
		return cp
	}
	out := NewTensor(keep)
	for idx := range out.Data {
		// Build the source index from kept assignment + fixed values.
		src := 0
		pos := len(keep) - 1
		assign := map[int]int{}
		tmp := idx
		for i := len(keep) - 1; i >= 0; i-- {
			assign[keep[i]] = tmp & 1
			tmp >>= 1
			_ = pos
		}
		for _, l := range t.Labels {
			src <<= 1
			if v, ok := fixed[l]; ok {
				src |= v
			} else {
				src |= assign[l]
			}
		}
		out.Data[idx] = t.Data[src]
	}
	return out
}

// contractPair contracts two tensors, summing over every shared label that
// is not in keepOpen. The inner loops avoid maps: for each operand, the
// contribution of every (output bit, sum bit) to its flat index is
// precomputed as a bitmask table.
func contractPair(a, b *Tensor, keepOpen map[int]bool) *Tensor {
	shared := map[int]bool{}
	inB := map[int]bool{}
	for _, l := range b.Labels {
		inB[l] = true
	}
	for _, l := range a.Labels {
		if inB[l] && !keepOpen[l] {
			shared[l] = true
		}
	}
	var outLabels, sumLabels []int
	seen := map[int]bool{}
	for _, l := range a.Labels {
		if shared[l] {
			continue
		}
		if !seen[l] {
			outLabels = append(outLabels, l)
			seen[l] = true
		}
	}
	for _, l := range b.Labels {
		if shared[l] || seen[l] {
			continue
		}
		outLabels = append(outLabels, l)
		seen[l] = true
	}
	for l := range shared {
		sumLabels = append(sumLabels, l)
	}
	sort.Ints(sumLabels)
	out := NewTensor(outLabels)
	nOut := len(outLabels)
	nSum := len(sumLabels)
	// maskFor[i] is the contribution to the operand's flat index when the
	// i-th loop bit is set (loop bit i of `oi` is outLabels[nOut-1-i] etc.).
	buildMasks := func(labels []int) (outMask, sumMask []int) {
		pos := map[int]int{}
		for i, l := range labels {
			pos[l] = i
		}
		n := len(labels)
		outMask = make([]int, nOut)
		for i, l := range outLabels {
			if p, ok := pos[l]; ok {
				outMask[i] = 1 << uint(n-1-p)
			}
		}
		sumMask = make([]int, nSum)
		for i, l := range sumLabels {
			if p, ok := pos[l]; ok {
				sumMask[i] = 1 << uint(n-1-p)
			}
		}
		return outMask, sumMask
	}
	aOut, aSum := buildMasks(a.Labels)
	bOut, bSum := buildMasks(b.Labels)
	// Precompute the sum-assignment index offsets once per operand.
	aSumIdx := make([]int, 1<<uint(nSum))
	bSumIdx := make([]int, 1<<uint(nSum))
	for si := range aSumIdx {
		ai, bi := 0, 0
		for i := 0; i < nSum; i++ {
			if si&(1<<uint(nSum-1-i)) != 0 {
				ai |= aSum[i]
				bi |= bSum[i]
			}
		}
		aSumIdx[si] = ai
		bSumIdx[si] = bi
	}
	for oi := 0; oi < 1<<uint(nOut); oi++ {
		aBase, bBase := 0, 0
		for i := 0; i < nOut; i++ {
			if oi&(1<<uint(nOut-1-i)) != 0 {
				aBase |= aOut[i]
				bBase |= bOut[i]
			}
		}
		var acc complex128
		for si := range aSumIdx {
			acc += a.Data[aBase|aSumIdx[si]] * b.Data[bBase|bSumIdx[si]]
		}
		out.Data[oi] = acc
	}
	return out
}

func labelPositions(labels []int) map[int]int {
	m := make(map[int]int, len(labels))
	for i, l := range labels {
		m[l] = i
	}
	return m
}

// ContractAll eliminates every non-open variable by greedy bucket
// elimination and returns the amplitudes of the open output variables,
// indexed with qubit 0 as the least-significant bit (matching statevec).
func (n *Network) ContractAll() ([]complex128, error) {
	open := map[int]bool{}
	openCount := 0
	for _, v := range n.Out {
		if v >= 0 {
			open[v] = true
			openCount++
		}
	}
	if openCount > MaxOpenQubits {
		return nil, fmt.Errorf("tensornet: %d open qubits exceeds full-state contraction cap %d", openCount, MaxOpenQubits)
	}
	tensors := append([]*Tensor(nil), n.Tensors...)
	// Index: var -> tensor list positions.
	for {
		// Collect remaining non-open vars.
		varTensors := map[int][]int{}
		for ti, t := range tensors {
			if t == nil {
				continue
			}
			for _, l := range t.Labels {
				if !open[l] {
					varTensors[l] = append(varTensors[l], ti)
				}
			}
		}
		if len(varTensors) == 0 {
			break
		}
		// Greedy: pick the variable whose elimination yields the smallest
		// intermediate tensor. Equal costs go to the smaller variable id, so
		// the contraction order (and every amplitude bit) does not depend on
		// map iteration order.
		bestVar, bestCost := -1, 1<<62
		for v, tis := range varTensors {
			union := map[int]bool{}
			for _, ti := range tis {
				for _, l := range tensors[ti].Labels {
					union[l] = true
				}
			}
			shared := 0
			if len(tis) == 2 {
				// Count shared non-open labels (all summed at once).
				cnt := map[int]int{}
				for _, ti := range tis {
					for _, l := range tensors[ti].Labels {
						cnt[l]++
					}
				}
				for l, c := range cnt {
					if c == 2 && !open[l] {
						shared++
					}
				}
			} else {
				shared = 1
			}
			cost := 1 << uint(len(union)-shared)
			if cost < bestCost || cost == bestCost && v < bestVar {
				bestCost, bestVar = cost, v
			}
		}
		if bestCost > 1<<uint(MaxIntermediateRank) {
			return nil, fmt.Errorf("tensornet: intermediate tensor rank exceeds cap %d (circuit treewidth too high for contraction)", MaxIntermediateRank)
		}
		tis := varTensors[bestVar]
		var merged *Tensor
		switch len(tis) {
		case 1:
			// Sum the variable out of a single tensor.
			merged = sumOut(tensors[tis[0]], bestVar)
			tensors[tis[0]] = nil
		case 2:
			merged = contractPair(tensors[tis[0]], tensors[tis[1]], open)
			tensors[tis[0]] = nil
			tensors[tis[1]] = nil
		default:
			// Should not happen with two-occurrence wiring; contract pairwise.
			merged = tensors[tis[0]]
			tensors[tis[0]] = nil
			for _, ti := range tis[1:] {
				merged = contractPair(merged, tensors[ti], open)
				tensors[ti] = nil
			}
		}
		if merged.Rank() > n.PeakRank {
			n.PeakRank = merged.Rank()
		}
		tensors = append(tensors, merged)
	}
	// Outer-product the survivors and reorder to qubit bit order.
	var final *Tensor
	for _, t := range tensors {
		if t == nil {
			continue
		}
		if final == nil {
			final = t
			continue
		}
		final = contractPair(final, t, open)
		if final.Rank() > n.PeakRank {
			n.PeakRank = final.Rank()
		}
	}
	if final == nil {
		return nil, fmt.Errorf("tensornet: empty network")
	}
	// Reorder: we want index bit q to be Out[q] (qubit 0 least significant),
	// i.e. label order [Out[n-1], ..., Out[0]].
	want := make([]int, 0, openCount)
	for q := n.NQubits - 1; q >= 0; q-- {
		if n.Out[q] >= 0 && open[n.Out[q]] {
			want = append(want, n.Out[q])
		}
	}
	reordered := reorder(final, want)
	return reordered.Data, nil
}

// sumOut sums a single variable out of one tensor.
func sumOut(t *Tensor, v int) *Tensor {
	var keep []int
	vi := -1
	for i, l := range t.Labels {
		if l == v {
			vi = i
		} else {
			keep = append(keep, l)
		}
	}
	if vi < 0 {
		return t
	}
	out := NewTensor(keep)
	n := len(t.Labels)
	for idx := range t.Data {
		// Remove bit vi from idx.
		hiBits := idx >> uint(n-vi) // bits above vi (more significant)
		loMask := (1 << uint(n-1-vi)) - 1
		lo := idx & loMask
		oidx := hiBits<<uint(n-1-vi) | lo
		out.Data[oidx] += t.Data[idx]
	}
	return out
}

// reorder permutes tensor indexes into the desired label order.
func reorder(t *Tensor, want []int) *Tensor {
	if len(want) != len(t.Labels) {
		panic("tensornet: reorder label count mismatch")
	}
	same := true
	for i := range want {
		if t.Labels[i] != want[i] {
			same = false
			break
		}
	}
	if same {
		return t
	}
	out := NewTensor(want)
	n := len(want)
	srcPos := labelPositions(t.Labels)
	// Precompute the source-bit mask for each destination bit.
	mask := make([]int, n)
	for i := 0; i < n; i++ {
		mask[i] = 1 << uint(n-1-srcPos[want[i]])
	}
	for oi := range out.Data {
		src := 0
		for i := 0; i < n; i++ {
			if oi&(1<<uint(n-1-i)) != 0 {
				src |= mask[i]
			}
		}
		out.Data[oi] = t.Data[src]
	}
	return out
}

// Simulate builds, contracts, and samples counts from a circuit.
func Simulate(c *circuit.Circuit, shots int, rng *rand.Rand) (map[string]int, error) {
	net, err := Build(c)
	if err != nil {
		return nil, err
	}
	amps, err := net.ContractAll()
	if err != nil {
		return nil, err
	}
	return SampleAmplitudes(amps, c.NQubits, shots, rng), nil
}

// SampleAmplitudes draws shots outcomes from an amplitude vector over n
// qubits (qubit 0 least significant) by bisecting the cumulative |a|² with
// one rng.Float64 per shot, and returns nil when shots <= 0.
func SampleAmplitudes(amps []complex128, n, shots int, rng *rand.Rand) map[string]int {
	if shots <= 0 {
		return nil
	}
	cum := make([]float64, len(amps))
	var acc float64
	for i, a := range amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		cum[i] = acc
	}
	counts := make(map[string]int)
	for s := 0; s < shots; s++ {
		r := rng.Float64() * acc
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		key := make([]byte, n)
		for q := 0; q < n; q++ {
			if lo&(1<<uint(q)) != 0 {
				key[n-1-q] = '1'
			} else {
				key[n-1-q] = '0'
			}
		}
		counts[string(key)]++
	}
	return counts
}
