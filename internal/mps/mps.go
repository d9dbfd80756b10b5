// Package mps implements a matrix-product-state circuit simulator with a
// maintained orthogonality center, truncated SVD bond compression, swap
// routing for long-range gates, direct sampling, and Pauli expectation
// values. It backs both the Qiskit Aer "matrix_product_state" sub-backend
// and the TN-QVM "exatn-mps" backend in the framework.
//
// The package exposes two execution paths:
//
//   - the per-gate path (Run/ApplyGate/Simulate): one MPS update per source
//     gate with there-and-back swap routing — the seed engine, kept as the
//     ablation baseline;
//   - the compiled path (CompileCircuit/Compiled.Execute/Compiled.RunBatch):
//     a fusion-aware schedule built once per circuit structure from
//     circuit.PlanFusion output, with a persistent-permutation swap route
//     planned once per spec — the production path behind the backends.
//
// MPS excels on structured, low-entanglement circuits (the paper's TFIM
// result) and degrades when long-range gates force swap chains or when
// entanglement saturates the bond dimension.
package mps

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"sync"

	"qfw/internal/circuit"
	"qfw/internal/linalg"
	"qfw/internal/pauli"
	"qfw/internal/statevec"
)

// site is a rank-3 tensor [chiL, 2, chiR], row-major: (l*2+s)*chiR + r.
type site struct {
	chiL, chiR int
	data       []complex128
}

func newSite(chiL, chiR int) *site {
	return &site{chiL: chiL, chiR: chiR, data: getCBuf(chiL * 2 * chiR)}
}

func (t *site) at(l, s, r int) complex128     { return t.data[(l*2+s)*t.chiR+r] }
func (t *site) set(l, s, r int, v complex128) { t.data[(l*2+s)*t.chiR+r] = v }

// Scratch-buffer arena: every two-site update allocates a theta tensor and
// two replacement site tensors. Buffers recycle through power-of-two
// size-class pools (fetched from the class covering the request, returned
// to the class their capacity fills), so a tiny edge-site tensor can never
// claim and pin a peak-sized theta buffer, and no returned buffer is ever
// dropped for being the wrong size.
var cbufPools [40]sync.Pool

// getCBuf returns a zeroed buffer of length n.
func getCBuf(n int) []complex128 {
	if n == 0 {
		return nil
	}
	class := bits.Len(uint(n - 1)) // smallest c with 2^c >= n
	if class >= len(cbufPools) {
		return make([]complex128, n)
	}
	if v := cbufPools[class].Get(); v != nil {
		b := v.([]complex128)[:n] // any class-c buffer has cap >= 2^c >= n
		for i := range b {
			b[i] = 0
		}
		return b
	}
	return make([]complex128, n, 1<<uint(class))
}

func putCBuf(b []complex128) {
	c := cap(b)
	if c == 0 {
		return
	}
	class := bits.Len(uint(c)) - 1 // largest class with 2^class <= cap
	if class >= len(cbufPools) {
		return
	}
	cbufPools[class].Put(b[:c]) //nolint:staticcheck // slice header allocation is amortized
}

// parallelWork is the flop count above which a two-site kernel fans its
// bond rows across the shared statevec worker pool. Below it the chunk
// handoff costs more than the loop.
const parallelWork = 1 << 14

// MPS is a matrix product state on N qubits. MaxBond and Cutoff control
// truncation at two-qubit gate splits; TruncErr accumulates the discarded
// probability weight and fidelity its multiplicative complement.
type MPS struct {
	N        int
	MaxBond  int
	Cutoff   float64
	TruncErr float64

	// Workers bounds the kernel parallelism of two-site updates (0/1 means
	// serial). Batched executions run elements serially and parallelize
	// across elements instead.
	Workers int

	// QubitOfSite maps chain positions to logical qubits when the compiled
	// engine leaves the chain permuted after routing (nil means identity).
	// Sampling, amplitudes, and expectations consult it.
	QubitOfSite []int

	sites    []*site
	center   int
	fidelity float64
	peakBond int
}

// DefaultMaxBond matches the practical default of production MPS simulators.
const DefaultMaxBond = 64

// New returns |0...0> as an MPS.
func New(n, maxBond int, cutoff float64) *MPS {
	if n < 1 {
		panic("mps: need at least one qubit")
	}
	if maxBond <= 0 {
		maxBond = DefaultMaxBond
	}
	if cutoff <= 0 {
		cutoff = 1e-12
	}
	m := &MPS{N: n, MaxBond: maxBond, Cutoff: cutoff, sites: make([]*site, n), fidelity: 1, peakBond: 1}
	for i := range m.sites {
		t := &site{chiL: 1, chiR: 1, data: make([]complex128, 2)}
		t.set(0, 0, 0, 1)
		m.sites[i] = t
	}
	return m
}

// Release returns the state's tensors to the scratch arena. The MPS is
// unusable afterwards. Releasing is optional — unreleased tensors are
// garbage collected normally.
func (m *MPS) Release() {
	for i, t := range m.sites {
		if t != nil {
			putCBuf(t.data)
			m.sites[i] = nil
		}
	}
	m.sites = nil
}

// BondDims returns the current bond dimensions (n-1 values).
func (m *MPS) BondDims() []int {
	out := make([]int, m.N-1)
	for i := 0; i+1 < m.N; i++ {
		out[i] = m.sites[i].chiR
	}
	return out
}

// MaxBondDim returns the largest current bond dimension.
func (m *MPS) MaxBondDim() int {
	mx := 1
	for _, d := range m.BondDims() {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// PeakBond returns the largest bond dimension reached during execution
// (after truncation), the memory high-water mark of the run.
func (m *MPS) PeakBond() int { return m.peakBond }

// Fidelity returns the multiplicative truncation-fidelity estimate
// Π_i (kept_i / total_i) over every truncated split: the probability weight
// the state retained. 1 means no truncation occurred; the exact state
// fidelity satisfies F >= 1 - 2·TruncErr (see the MaxBond sweep test).
func (m *MPS) Fidelity() float64 { return m.fidelity }

// qubitForSite maps a chain position to its logical qubit.
func (m *MPS) qubitForSite(i int) int {
	if m.QubitOfSite == nil {
		return i
	}
	return m.QubitOfSite[i]
}

// Apply1Q applies a 2x2 matrix to the site at chain position q
// (gauge-preserving).
func (m *MPS) Apply1Q(g [2][2]complex128, q int) {
	t := m.sites[q]
	for l := 0; l < t.chiL; l++ {
		for r := 0; r < t.chiR; r++ {
			a0 := t.at(l, 0, r)
			a1 := t.at(l, 1, r)
			t.set(l, 0, r, g[0][0]*a0+g[0][1]*a1)
			t.set(l, 1, r, g[1][0]*a0+g[1][1]*a1)
		}
	}
}

// ApplyDiag1Q multiplies the site at chain position q by diag(d[0], d[1]) —
// a pure scale, no SVD, no gauge disturbance.
func (m *MPS) ApplyDiag1Q(d [2]complex128, q int) {
	t := m.sites[q]
	for l := 0; l < t.chiL; l++ {
		row0 := (l * 2) * t.chiR
		row1 := row0 + t.chiR
		for r := 0; r < t.chiR; r++ {
			t.data[row0+r] *= d[0]
			t.data[row1+r] *= d[1]
		}
	}
}

// moveCenterTo sweeps the orthogonality center to site j. Gauge moves need
// only an orthonormal factor, so they run on thin QR — one Householder
// triangularization instead of a Gram eigendecomposition per shift.
func (m *MPS) moveCenterTo(j int) {
	for m.center < j {
		m.shiftRight()
	}
	for m.center > j {
		m.shiftLeft()
	}
}

func (m *MPS) shiftRight() {
	c := m.center
	t := m.sites[c]
	mat := &linalg.Matrix{Rows: t.chiL * 2, Cols: t.chiR, Data: t.data}
	q, r := linalg.QR(mat)
	k := q.Cols // min(2*chiL, chiR): the reshape rank bound
	// A_c <- Q (left-canonical).
	nt := newSite(t.chiL, k)
	copy(nt.data, q.Data)
	// Absorb R (upper triangular) into the next site.
	next := m.sites[c+1]
	nn := newSite(k, next.chiR)
	for l := 0; l < k; l++ {
		for ss := 0; ss < 2; ss++ {
			for rr := 0; rr < next.chiR; rr++ {
				var acc complex128
				for b := l; b < next.chiL; b++ {
					acc += r.At(l, b) * next.at(b, ss, rr)
				}
				nn.set(l, ss, rr, acc)
			}
		}
	}
	putCBuf(t.data)
	putCBuf(next.data)
	m.sites[c] = nt
	m.sites[c+1] = nn
	m.center = c + 1
}

func (m *MPS) shiftLeft() {
	c := m.center
	t := m.sites[c]
	mat := &linalg.Matrix{Rows: t.chiL, Cols: 2 * t.chiR, Data: t.data}
	// mat = R† Q† from the QR of mat†: Q† has orthonormal rows
	// (right-canonical), R† is lower triangular and absorbs leftward.
	q, r := linalg.QR(mat.Dagger())
	k := q.Cols // min(2*chiR, chiL): the reshape rank bound
	nt := newSite(k, t.chiR)
	for l := 0; l < k; l++ {
		for col := 0; col < 2*t.chiR; col++ {
			nt.data[l*2*t.chiR+col] = cmplx.Conj(q.At(col, l))
		}
	}
	prev := m.sites[c-1]
	np := newSite(prev.chiL, k)
	for l := 0; l < prev.chiL; l++ {
		for ss := 0; ss < 2; ss++ {
			for rr := 0; rr < k; rr++ {
				var acc complex128
				// R†[b][rr] = conj(R[rr][b]), nonzero for b >= rr.
				for b := rr; b < prev.chiR; b++ {
					acc += prev.at(l, ss, b) * cmplx.Conj(r.At(rr, b))
				}
				np.set(l, ss, rr, acc)
			}
		}
	}
	putCBuf(t.data)
	putCBuf(prev.data)
	m.sites[c] = nt
	m.sites[c-1] = np
	m.center = c - 1
}

func rankOf(s []float64, tol float64) int {
	if len(s) == 0 {
		return 1
	}
	thresh := s[0] * tol
	k := 0
	for _, sv := range s {
		if sv > thresh && sv > 1e-300 {
			k++
		}
	}
	if k == 0 {
		k = 1
	}
	return k
}

// contractPair moves the center to i and contracts sites (i, i+1) into the
// theta tensor [chiL, 2, 2, chiR] (pooled buffer; caller owns it until
// splitPair consumes it).
func (m *MPS) contractPair(i int) (theta []complex128, chiL, chiR int) {
	m.moveCenterTo(i)
	a, b := m.sites[i], m.sites[i+1]
	chiL, chiR = a.chiL, b.chiR
	mid := a.chiR
	theta = getCBuf(chiL * 2 * 2 * chiR)
	body := func(start, end int) {
		for l := start; l < end; l++ {
			for sa := 0; sa < 2; sa++ {
				base := ((l*2+sa)*2)*chiR + 0
				for k := 0; k < mid; k++ {
					av := a.at(l, sa, k)
					if av == 0 {
						continue
					}
					for sb := 0; sb < 2; sb++ {
						brow := (k*2 + sb) * b.chiR
						trow := base + sb*chiR
						for r := 0; r < chiR; r++ {
							theta[trow+r] += av * b.data[brow+r]
						}
					}
				}
			}
		}
	}
	if m.Workers > 1 && chiL*mid*chiR >= parallelWork {
		statevec.ParallelFor(m.Workers, chiL, 2, body)
	} else {
		body(0, chiL)
	}
	return theta, chiL, chiR
}

// splitPair SVD-splits theta back into sites (i, i+1), truncating per
// MaxBond and Cutoff and tracking the discarded weight.
func (m *MPS) splitPair(theta []complex128, i, chiL, chiR int) {
	mat := &linalg.Matrix{Rows: chiL * 2, Cols: 2 * chiR, Data: theta}
	u, s, v := linalg.SVD(mat)
	k := rankOf(s, m.Cutoff)
	if k > m.MaxBond {
		k = m.MaxBond
	}
	var kept, total float64
	for i2, sv := range s {
		total += sv * sv
		if i2 < k {
			kept += sv * sv
		}
	}
	if total > 0 {
		m.TruncErr += 1 - kept/total
		m.fidelity *= kept / total
	}
	renorm := 1.0
	if kept > 0 {
		renorm = math.Sqrt(total / kept)
	}
	na := newSite(chiL, k)
	for row := 0; row < chiL*2; row++ {
		for col := 0; col < k; col++ {
			na.data[row*k+col] = u.At(row, col)
		}
	}
	nb := newSite(k, chiR)
	for l := 0; l < k; l++ {
		sv := complex(s[l]*renorm, 0)
		for col := 0; col < 2*chiR; col++ {
			nb.data[l*2*chiR+col] = sv * cmplx.Conj(v.At(col, l))
		}
	}
	putCBuf(m.sites[i].data)
	putCBuf(m.sites[i+1].data)
	putCBuf(theta)
	m.sites[i] = na
	m.sites[i+1] = nb
	m.center = i + 1
	if k > m.peakBond {
		m.peakBond = k
	}
}

// ApplyTwoAdjacent applies a 4x4 gate to sites (i, i+1). The matrix basis is
// |s_i s_{i+1}> with s_i the most significant bit. Truncation per MaxBond
// and Cutoff happens here.
func (m *MPS) ApplyTwoAdjacent(g *linalg.Matrix, i int) {
	if g.Rows != 4 || g.Cols != 4 {
		panic("mps: ApplyTwoAdjacent needs a 4x4 matrix")
	}
	theta, chiL, chiR := m.contractPair(i)
	var gm [4][4]complex128
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			gm[r][c] = g.At(r, c)
		}
	}
	idx := func(l, sa, sb, r int) int { return ((l*2+sa)*2+sb)*chiR + r }
	body := func(start, end int) {
		for l := start; l < end; l++ {
			for r := 0; r < chiR; r++ {
				t00 := theta[idx(l, 0, 0, r)]
				t01 := theta[idx(l, 0, 1, r)]
				t10 := theta[idx(l, 1, 0, r)]
				t11 := theta[idx(l, 1, 1, r)]
				theta[idx(l, 0, 0, r)] = gm[0][0]*t00 + gm[0][1]*t01 + gm[0][2]*t10 + gm[0][3]*t11
				theta[idx(l, 0, 1, r)] = gm[1][0]*t00 + gm[1][1]*t01 + gm[1][2]*t10 + gm[1][3]*t11
				theta[idx(l, 1, 0, r)] = gm[2][0]*t00 + gm[2][1]*t01 + gm[2][2]*t10 + gm[2][3]*t11
				theta[idx(l, 1, 1, r)] = gm[3][0]*t00 + gm[3][1]*t01 + gm[3][2]*t10 + gm[3][3]*t11
			}
		}
	}
	if m.Workers > 1 && chiL*chiR*16 >= parallelWork {
		statevec.ParallelFor(m.Workers, chiL, 2, body)
	} else {
		body(0, chiL)
	}
	m.splitPair(theta, i, chiL, chiR)
}

// ApplyDiagTwoAdjacent applies a diagonal two-qubit gate diag(d) to sites
// (i, i+1), with d indexed by (s_i << 1) | s_{i+1}. The gate application is
// an elementwise scale; the SVD split (a diagonal pair gate still grows the
// bond) is shared with the dense path.
func (m *MPS) ApplyDiagTwoAdjacent(d [4]complex128, i int) {
	theta, chiL, chiR := m.contractPair(i)
	for l := 0; l < chiL; l++ {
		for v := 0; v < 4; v++ {
			row := (l*4 + v) * chiR
			dv := d[v]
			for r := 0; r < chiR; r++ {
				theta[row+r] *= dv
			}
		}
	}
	m.splitPair(theta, i, chiL, chiR)
}

var swapMatrix = circuit.Matrix2Q(circuit.KindSWAP, 0)

// swapAdjacent swaps chain positions i and i+1.
func (m *MPS) swapAdjacent(i int) {
	m.ApplyTwoAdjacent(swapMatrix, i)
}

// ApplyGate2 applies a 4x4 gate to arbitrary qubits (hi, lo basis |hi lo>),
// routing with there-and-back swaps when the qubits are not adjacent (the
// per-gate path; the compiled path plans a persistent-permutation route
// instead).
func (m *MPS) ApplyGate2(g *linalg.Matrix, hi, lo int) {
	a, b := hi, lo
	flip := false
	if a > b {
		a, b = b, a
		flip = !flip // gate expects hi first; chain position of hi is now right
	}
	// Move qubit at position a right until adjacent to b.
	for pos := a; pos+1 < b; pos++ {
		m.swapAdjacent(pos)
	}
	left := b - 1
	gate := g
	if flip {
		gate = permute2Q(g)
	}
	m.ApplyTwoAdjacent(gate, left)
	for pos := b - 2; pos >= a; pos-- {
		m.swapAdjacent(pos)
	}
}

// permute2Q swaps the tensor factors of a 4x4 gate matrix: basis |ab> -> |ba>.
func permute2Q(g *linalg.Matrix) *linalg.Matrix {
	out := linalg.New(4, 4)
	perm := [4]int{0, 2, 1, 3}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out.Set(perm[r], perm[c], g.At(r, c))
		}
	}
	return out
}

// MPSGateSet lists the gates the engine executes natively.
func MPSGateSet() circuit.GateSet {
	set := circuit.BasicGateSet()
	set[circuit.KindSWAP] = true
	set[circuit.KindRZZ] = true
	set[circuit.KindRXX] = true
	set[circuit.KindUnitary] = true
	return set
}

// ApplyGate dispatches a bound gate; >=3-qubit gates must be transpiled away
// before reaching the engine.
func (m *MPS) ApplyGate(g circuit.Gate) error {
	switch g.Kind {
	case circuit.KindBarrier, circuit.KindI, circuit.KindMeasure, circuit.KindReset:
		return nil // terminal measurement handled by sampling
	case circuit.KindUnitary:
		switch len(g.Qubits) {
		case 1:
			m.Apply1Q([2][2]complex128{
				{g.Matrix.At(0, 0), g.Matrix.At(0, 1)},
				{g.Matrix.At(1, 0), g.Matrix.At(1, 1)}}, g.Qubits[0])
			return nil
		case 2:
			m.ApplyGate2(g.Matrix, g.Qubits[0], g.Qubits[1])
			return nil
		}
		return fmt.Errorf("mps: dense unitary on %d qubits not supported; transpile first", len(g.Qubits))
	}
	var theta float64
	if g.Kind.NumParams() == 1 {
		theta = g.Angle()
	}
	switch g.Kind.NumQubits() {
	case 1:
		m.Apply1Q(circuit.Matrix1Q(g.Kind, theta), g.Qubits[0])
		return nil
	case 2:
		m.ApplyGate2(circuit.Matrix2Q(g.Kind, theta), g.Qubits[0], g.Qubits[1])
		return nil
	}
	return fmt.Errorf("mps: unsupported gate %s; transpile first", g.Kind.Name())
}

// Run applies a whole (bound) circuit gate by gate, transpiling unsupported
// gates — the seed engine's path, kept as the ablation baseline for the
// compiled schedule.
func (m *MPS) Run(c *circuit.Circuit) error {
	tc := circuit.Transpile(c, MPSGateSet())
	for _, g := range tc.Gates {
		if err := m.ApplyGate(g); err != nil {
			return err
		}
	}
	return nil
}

// sampleChunkBytes caps the uniforms Sample draws ahead of its prefix walk:
// shots are sampled in chunks of consecutive shots whose draws fit in it.
const sampleChunkBytes = 1 << 20

// Sample draws shots bitstrings from the MPS distribution. Keys follow the
// Qiskit convention (qubit 0 rightmost); a routed chain permutation is
// unwound in the keys, never in the tensors. shots <= 0 draws nothing and
// returns nil.
//
// Each shot reads one uniform u per site, shot-major, and takes branch 1 at
// a site when u·(p0+p1) < p1 for the weights of its conditioned bond vector.
// Shots that share a prefix share that vector, so a chunk's uniforms are
// drawn first and the chunk walks the prefix tree depth-first: one
// contraction per distinct prefix instead of one per shot and site. The
// result is the histogram, and the rng state, of sampling shot by shot.
// A node of zero weight takes branch 0 without a draw, which shifts the
// stream; on meeting one the chunk is replayed shot by shot from its
// buffered draws (a zero-norm state, whose root has zero weight, never
// draws ahead at all, so only a zero-weight node below a nonzero root can
// leave rng up to one chunk further on).
func (m *MPS) Sample(shots int, rng *rand.Rand) map[string]int {
	if shots <= 0 {
		return nil
	}
	m.moveCenterTo(0)
	s := newPrefixSampler(m, min(shots, max(1, sampleChunkBytes/8/m.N)), rng)
	root := []complex128{1}
	p0, p1 := branches(root, m.sites[0], s.branch[0][0], s.branch[0][1])
	s.perShot = p0+p1 <= 0
	var counts map[string]int
	for done := 0; done < shots; {
		if s.perShot {
			s.walk(0, root, s.idx[:1])
			done++
			continue
		}
		s.cs = min(len(s.idx), shots-done)
		for j := 0; j < s.cs; j++ {
			for i := 0; i < m.N; i++ {
				s.u[i*s.cs+j] = rng.Float64()
			}
		}
		for j := range s.idx[:s.cs] {
			s.idx[j] = int32(j)
		}
		if !s.walk(0, root, s.idx[:s.cs]) {
			clear(s.counts)
			s.perShot = true
			continue
		}
		counts = s.commit(counts)
		done += s.cs
	}
	return s.commit(counts)
}

// prefixSampler is the state of one Sample call.
type prefixSampler struct {
	m      *MPS
	rng    *rand.Rand
	branch [][2][]complex128 // per site: its two conditioned bond vectors
	u      []float64         // chunk uniforms: u[i*cs+j] is site i of shot j
	cs     int               // shots in the current chunk
	idx    []int32           // chunk shot indices, partitioned per node
	key    []byte
	counts map[string]int // the histogram not yet committed

	// perShot walks one shot at a time and draws lazily: first the
	// buffered uniforms of the chunk that met a zero-weight node (pos
	// counts them in stream order), then rng.
	perShot bool
	pos     int
}

func newPrefixSampler(m *MPS, chunk int, rng *rand.Rand) *prefixSampler {
	s := &prefixSampler{
		m: m, rng: rng,
		branch: make([][2][]complex128, m.N),
		u:      make([]float64, chunk*m.N),
		idx:    make([]int32, chunk),
		key:    make([]byte, m.N),
		counts: make(map[string]int, 16),
	}
	width := 0
	for _, t := range m.sites {
		width += 2 * t.chiR
	}
	vec := make([]complex128, width)
	for i, t := range m.sites {
		s.branch[i] = [2][]complex128{vec[:t.chiR:t.chiR], vec[t.chiR : 2*t.chiR : 2*t.chiR]}
		vec = vec[2*t.chiR:]
	}
	return s
}

// commit adds the uncommitted histogram to counts and returns it.
func (s *prefixSampler) commit(counts map[string]int) map[string]int {
	if counts == nil {
		counts, s.counts = s.counts, make(map[string]int, 16)
		return counts
	}
	for k, v := range s.counts {
		counts[k] += v
	}
	clear(s.counts)
	return counts
}

// walk visits the prefix-tree node at site i, whose conditioned bond vector
// is left, with the shots in idx. It returns false when a chunk meets a
// node of zero weight, where the chunk's draws stop matching the stream.
func (s *prefixSampler) walk(i int, left []complex128, idx []int32) bool {
	m := s.m
	if i == m.N {
		s.counts[string(s.key)] += len(idx)
		return true
	}
	v0, v1 := s.branch[i][0], s.branch[i][1]
	p0, p1 := branches(left, m.sites[i], v0, v1)
	total := p0 + p1
	split := len(idx) // idx[:split] take branch 0, idx[split:] branch 1
	switch {
	case total <= 0:
		if !s.perShot {
			return false
		}
		clear(v0)
		v0[0], p0 = 1, 1
	case s.perShot:
		if s.next()*total < p1 {
			split = 0
		}
	default:
		u := s.u[i*s.cs : (i+1)*s.cs]
		for j := 0; j < split; {
			if u[idx[j]]*total < p1 {
				split--
				idx[j], idx[split] = idx[split], idx[j]
			} else {
				j++
			}
		}
	}
	pos := m.N - 1 - m.qubitForSite(i)
	if split > 0 {
		// p0 is norm2(v0): normalizing by it rescales exactly as a fresh
		// norm would.
		normalizeBy(v0, p0)
		s.key[pos] = '0'
		if !s.walk(i+1, v0, idx[:split]) {
			return false
		}
	}
	if split < len(idx) {
		normalizeBy(v1, p1)
		s.key[pos] = '1'
		return s.walk(i+1, v1, idx[split:])
	}
	return true
}

// next returns the next uniform of the stream in per-shot mode.
func (s *prefixSampler) next() float64 {
	if n := s.m.N; s.pos < s.cs*n {
		p := s.pos
		s.pos++
		return s.u[(p%n)*s.cs+p/n]
	}
	return s.rng.Float64()
}

// branches contracts the bond vector left with both physical indices of
// site t in one pass over the tensor, into v0 and v1 (len t.chiR), and
// returns their squared norms.
func branches(left []complex128, t *site, v0, v1 []complex128) (p0, p1 float64) {
	clear(v0)
	clear(v1)
	v1 = v1[:len(v0)]
	for l := 0; l < t.chiL; l++ {
		lv := left[l]
		if lv == 0 {
			continue
		}
		row0 := t.data[2*l*t.chiR:][:len(v0)]
		row1 := t.data[(2*l+1)*t.chiR:][:len(v0)]
		for r := range v0 {
			v0[r] += lv * row0[r]
			v1[r] += lv * row1[r]
		}
	}
	return norm2(v0), norm2(v1)
}

func norm2(v []complex128) float64 {
	var acc float64
	for _, x := range v {
		acc += real(x)*real(x) + imag(x)*imag(x)
	}
	return acc
}

// normalizeBy scales v to unit norm given p = norm2(v).
func normalizeBy(v []complex128, p float64) {
	n := math.Sqrt(p)
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
}

// Norm returns ||psi||, computed by a full transfer contraction (gauge-free).
func (m *MPS) Norm() float64 {
	e := m.transfer(nil)
	return math.Sqrt(math.Abs(real(e)))
}

// ExpectationPauliString returns <psi| P |psi>.
func (m *MPS) ExpectationPauliString(p pauli.String) float64 {
	ops := make([]*linalg.Matrix, m.N)
	for q, op := range p.Ops {
		var mat *linalg.Matrix
		switch op {
		case pauli.X:
			mat = circuit.FromMat2(circuit.Matrix1Q(circuit.KindX, 0))
		case pauli.Y:
			mat = circuit.FromMat2(circuit.Matrix1Q(circuit.KindY, 0))
		case pauli.Z:
			mat = circuit.FromMat2(circuit.Matrix1Q(circuit.KindZ, 0))
		default:
			continue
		}
		// Place the operator on the chain position currently holding qubit q.
		site := q
		if m.QubitOfSite != nil {
			for i, qq := range m.QubitOfSite {
				if qq == q {
					site = i
					break
				}
			}
		}
		ops[site] = mat
	}
	return p.Coeff * real(m.transfer(ops))
}

// ExpectationHamiltonian returns <psi| H |psi>.
func (m *MPS) ExpectationHamiltonian(h *pauli.Hamiltonian) float64 {
	var e float64
	for _, t := range h.Terms {
		e += m.ExpectationPauliString(t)
	}
	return e
}

// transfer contracts <psi| O |psi> where O is a product of per-site 1-qubit
// operators (nil entries mean identity; ops == nil means all identity).
// Operators are indexed by chain position, not logical qubit.
func (m *MPS) transfer(ops []*linalg.Matrix) complex128 {
	// env[l'][l] accumulates the contraction of conj(A) (top) with A (bottom).
	env := []complex128{1} // 1x1
	rows := 1
	for i := 0; i < m.N; i++ {
		t := m.sites[i]
		var op *linalg.Matrix
		if ops != nil {
			op = ops[i]
		}
		nr := t.chiR
		nenv := make([]complex128, nr*nr)
		for lp := 0; lp < t.chiL; lp++ {
			for l := 0; l < t.chiL; l++ {
				ev := env[lp*rows+l]
				if ev == 0 {
					continue
				}
				for sp := 0; sp < 2; sp++ {
					for s := 0; s < 2; s++ {
						var ov complex128
						if op == nil {
							if sp != s {
								continue
							}
							ov = 1
						} else {
							ov = op.At(sp, s)
							if ov == 0 {
								continue
							}
						}
						for rp := 0; rp < nr; rp++ {
							av := cmplx.Conj(t.at(lp, sp, rp))
							if av == 0 {
								continue
							}
							coef := ev * ov * av
							for r := 0; r < nr; r++ {
								nenv[rp*nr+r] += coef * t.at(l, s, r)
							}
						}
					}
				}
			}
		}
		env = nenv
		rows = nr
	}
	return env[0]
}

// Amplitudes materializes the full 2^N state vector (small N only; used by
// tests to cross-check against the state-vector engine). Qubit 0 is the
// least-significant index bit, matching package statevec; a routed chain
// permutation is resolved per index.
func (m *MPS) Amplitudes() []complex128 {
	if m.N > 20 {
		panic("mps: Amplitudes beyond 20 qubits")
	}
	dim := 1 << uint(m.N)
	out := make([]complex128, dim)
	for idx := 0; idx < dim; idx++ {
		vec := []complex128{1}
		for i := 0; i < m.N; i++ {
			s := (idx >> uint(m.qubitForSite(i))) & 1
			t := m.sites[i]
			nv := make([]complex128, t.chiR)
			for l := 0; l < t.chiL; l++ {
				if vec[l] == 0 {
					continue
				}
				for r := 0; r < t.chiR; r++ {
					nv[r] += vec[l] * t.at(l, s, r)
				}
			}
			vec = nv
		}
		out[idx] = vec[0]
	}
	return out
}

// Simulate is the per-gate backend entry point: run the circuit and sample
// counts (the seed path; production backends use the compiled schedule).
func Simulate(c *circuit.Circuit, shots, maxBond int, cutoff float64, rng *rand.Rand) (map[string]int, float64, error) {
	counts, truncErr, _, err := SimulateWithExpectation(c, shots, maxBond, cutoff, rng, nil)
	return counts, truncErr, err
}

// SimulateWithExpectation additionally evaluates <H> over the final state
// when a Hamiltonian is supplied (exact transfer-matrix contraction, no
// shot noise).
func SimulateWithExpectation(c *circuit.Circuit, shots, maxBond int, cutoff float64, rng *rand.Rand, h *pauli.Hamiltonian) (map[string]int, float64, *float64, error) {
	if !c.IsBound() {
		return nil, 0, nil, fmt.Errorf("mps: circuit has unbound parameters")
	}
	m := New(c.NQubits, maxBond, cutoff)
	if err := m.Run(c.StripMeasurements()); err != nil {
		return nil, 0, nil, err
	}
	var expVal *float64
	if h != nil {
		v := m.ExpectationHamiltonian(h)
		expVal = &v
	}
	counts := m.Sample(shots, rng)
	truncErr := m.TruncErr
	m.Release()
	return counts, truncErr, expVal, nil
}
