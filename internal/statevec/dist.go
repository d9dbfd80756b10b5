package statevec

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"sort"

	"qfw/internal/circuit"
	"qfw/internal/mpi"
	"qfw/internal/pauli"
)

// Distributed state-vector simulation (the NWQ-Sim / SV-Sim analog): the
// 2^n amplitudes are partitioned across P = 2^g MPI ranks; each rank owns
// the contiguous block whose top g physical index bits equal its rank.
//
// The engine executes *fused programs* under a communication-aware stage
// schedule (circuit.PlanDistStages): each stage's non-diagonal kernels act
// only on qubits resident in the local shard — running through the exact
// same classified kernels, worker pool, and buffer arena as the single-node
// engine — while stage boundaries perform one bit-permutation remap of the
// global index (an all-to-all shard shuffle) that brings the next run of
// "global" qubits local in a single exchange. Combined diagonal layers
// never communicate: factors on global qubits collapse to per-rank scalars
// read off the rank id. A world so large that a shard cannot host a
// two-qubit gate (fewer than two local qubits) holds at most 2P amplitudes
// in total, so there every rank simulates the whole state and keeps its slice.

// distState is one rank's shard of the global state vector.
type distState struct {
	n       int // total qubits
	nLocal  int // qubits stored in the local index
	workers int
	comm    *mpi.Comm
	amp     []complex128
	pos     []int // pos[q] = physical bit position of program qubit q
	tag     int   // lock-step exchange tag counter (same sequence on every rank)
}

// DistObs selects the observable evaluated over the final distributed
// state: a diagonal basis-index energy function, or a general Pauli-sum
// Hamiltonian (basis-changed locally, energy Allreduced). Ham wins when
// both are set.
type DistObs struct {
	Diag func(idx int) float64
	Ham  *pauli.Hamiltonian
}

// DistResult is one element's outcome of a distributed (batch) execution.
// Counts are populated on rank 0 only; ExpVal is valid on every rank.
type DistResult struct {
	Counts map[string]int
	ExpVal *float64
}

// DistBatch describes a batched distributed execution: one parametric
// ansatz, K parameter bindings, and per-element seeds, all run inside a
// single persistent world (one rank-goroutine spawn, one fused plan).
type DistBatch struct {
	Circuit  *circuit.Circuit
	Plan     *circuit.FusionPlan // optional: cached plan of Circuit.StripMeasurements()
	Bindings []map[string]float64
	Shots    int     // <= 0: expectation only, no counts
	Seeds    []int64 // per-element RNG seeds; element i defaults to i+1 when nil
	Workers  int     // kernel workers per rank shard (<=0 means 1)
	Obs      DistObs
}

// distGeometry validates the (world size, qubit count) pairing and returns
// the number of global qubits g (world size = 2^g).
func distGeometry(size, nqubits int) (int, error) {
	if size < 1 {
		return 0, fmt.Errorf("statevec: distributed world needs at least one rank, got %d", size)
	}
	if size&(size-1) != 0 {
		return 0, fmt.Errorf("statevec: distributed world size %d is not a power of two — amplitude sharding encodes the rank in the top g index bits, so launch 2^g ranks", size)
	}
	g := 0
	for 1<<uint(g) < size {
		g++
	}
	if g > nqubits {
		return 0, fmt.Errorf("statevec: %d ranks exceed the 2^%d amplitudes of a %d-qubit state — use at most %d ranks", size, nqubits, nqubits, 1<<uint(nqubits))
	}
	if nqubits-g > 30 {
		return 0, fmt.Errorf("statevec: a %d-qubit shard per rank exceeds the 2^30 amplitude arena — distribute %d qubits over at least %d ranks", nqubits-g, nqubits, 1<<uint(nqubits-30))
	}
	return g, nil
}

// checkBound rejects circuits with unbound parameters with an actionable
// message naming the missing bindings.
func checkBound(c *circuit.Circuit) error {
	if !c.IsBound() {
		return fmt.Errorf("statevec: circuit %q has unbound parameters %v — bind them first or submit through the distributed batch path with per-element bindings", c.Name, c.ParamNames())
	}
	return nil
}

// newDistState allocates a rank shard from the amplitude arena, initialized
// to the rank's slice of |0...0> under the identity layout.
func newDistState(comm *mpi.Comm, n, g, workers int) *distState {
	if workers < 1 {
		workers = 1
	}
	d := &distState{
		n:       n,
		nLocal:  n - g,
		workers: workers,
		comm:    comm,
		amp:     getAmpBuf(n - g),
		pos:     make([]int, n),
	}
	clear(d.amp)
	if comm.Rank() == 0 {
		d.amp[0] = 1
	}
	for q := 0; q < n; q++ {
		d.pos[q] = q
	}
	return d
}

// release returns the shard buffer to the arena; the state is unusable
// afterwards.
func (d *distState) release() {
	if d.amp != nil {
		putAmpBuf(d.nLocal, d.amp)
		d.amp = nil
	}
}

// shard wraps the local amplitude block as a State so fused kernels, the
// persistent worker pool, and the specialized unfused paths apply verbatim.
func (d *distState) shard() *State {
	return &State{N: d.nLocal, Amp: d.amp, Workers: d.workers}
}

// rankBit returns the value of the qubit stored at physical position p
// (p >= nLocal), read off the rank id.
func (d *distState) rankBit(p int) int {
	return (d.comm.Rank() >> uint(p-d.nLocal)) & 1
}

// nextTag returns a fresh point-to-point tag; every rank executes the same
// exchange sequence, so the counters stay aligned.
func (d *distState) nextTag() int {
	d.tag++
	return d.tag
}

// progIndex translates a physical global index into the program basis index
// under the current layout.
func (d *distState) progIndex(gPhys int) int {
	out := 0
	for q := 0; q < d.n; q++ {
		if gPhys&(1<<uint(d.pos[q])) != 0 {
			out |= 1 << uint(q)
		}
	}
	return out
}

// indexTranslator returns the physical-to-program index map, short-circuited
// to the identity when the layout never left it (runs without remap points)
// so the hot per-amplitude loops skip the O(n) bit translation.
func (d *distState) indexTranslator() func(int) int {
	for q, p := range d.pos {
		if p != q {
			return d.progIndex
		}
	}
	return func(g int) int { return g }
}

// localQubits maps program qubits to shard positions; the stage partitioner
// guarantees residency, so a global position here is a scheduler bug.
func (d *distState) localQubits(qs []int) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		p := d.pos[q]
		if p >= d.nLocal {
			panic(fmt.Sprintf("statevec: qubit %d scheduled local but resides at global position %d", q, p))
		}
		out[i] = p
	}
	return out
}

// permuteBits moves bit p of g to position move[p] for every position.
func permuteBits(g int, move []int) int {
	out := 0
	for p := 0; p < len(move); p++ {
		if g&(1<<uint(p)) != 0 {
			out |= 1 << uint(move[p])
		}
	}
	return out
}

// remap transitions the shard to a new qubit layout: one logical
// bit-permutation of the global index, realized as a single all-to-all
// shuffle. Each rank buckets its amplitudes by destination rank ordered by
// destination-local index; the receiver reconstructs placement from the
// inverse permutation, so only raw amplitudes travel (no index payload).
func (d *distState) remap(newPos []int) {
	same := true
	for q, p := range newPos {
		if d.pos[q] != p {
			same = false
			break
		}
	}
	if same {
		return
	}
	nL := d.nLocal
	P := d.comm.Size()
	move := make([]int, d.n) // move[oldPhysicalPos] = newPhysicalPos
	for q := 0; q < d.n; q++ {
		move[d.pos[q]] = newPos[q]
	}
	base := d.comm.Rank() << uint(nL)
	mask := (1 << uint(nL)) - 1
	type slot struct {
		local int // destination-local index
		amp   complex128
	}
	buckets := make([][]slot, P)
	for i, a := range d.amp {
		g := permuteBits(base|i, move)
		r := g >> uint(nL)
		buckets[r] = append(buckets[r], slot{local: g & mask, amp: a})
	}
	payloads := make([]any, P)
	for r, b := range buckets {
		sort.Slice(b, func(x, y int) bool { return b[x].local < b[y].local })
		amps := make([]complex128, len(b))
		for x, s := range b {
			amps[x] = s.amp
		}
		payloads[r] = amps
	}
	recv := d.comm.Alltoall(payloads)
	inv := make([]int, d.n)
	for p, np := range move {
		inv[np] = p
	}
	next := getAmpBuf(nL)
	cursors := make([]int, P)
	for i := range next {
		gOld := permuteBits(base|i, inv)
		src := gOld >> uint(nL)
		buf := recv[src].([]complex128)
		next[i] = buf[cursors[src]]
		cursors[src]++
	}
	putAmpBuf(nL, d.amp)
	d.amp = next
	copy(d.pos, newPos)
}

// applyDiagTerms executes a combined diagonal layer rank-locally: factors on
// shard-resident qubits run through the table-driven diagonal kernel; factors
// on rank-encoded qubits collapse to a per-rank scalar (their bit value is
// fixed across the whole shard), folded into the first local factor or swept
// once when the layer is entirely global.
func (d *distState) applyDiagTerms(d1 []circuit.DiagTerm1, d2 []circuit.DiagTerm2) {
	nL := d.nLocal
	var l1 []circuit.DiagTerm1
	var l2 []circuit.DiagTerm2
	scalar := complex(1, 0)
	for _, t := range d1 {
		if p := d.pos[t.Q]; p < nL {
			l1 = append(l1, circuit.DiagTerm1{Q: p, D: t.D})
		} else {
			scalar *= t.D[d.rankBit(p)]
		}
	}
	for _, t := range d2 {
		pa, pb := d.pos[t.A], d.pos[t.B]
		switch {
		case pa < nL && pb < nL:
			l2 = append(l2, circuit.DiagTerm2{A: pa, B: pb, D: t.D})
		case pa < nL: // B's value fixed by the rank
			bb := d.rankBit(pb)
			l1 = append(l1, circuit.DiagTerm1{Q: pa, D: [2]complex128{t.D[bb], t.D[2|bb]}})
		case pb < nL: // A's value fixed by the rank
			ab := d.rankBit(pa)
			l1 = append(l1, circuit.DiagTerm1{Q: pb, D: [2]complex128{t.D[ab<<1], t.D[ab<<1|1]}})
		default:
			scalar *= t.D[d.rankBit(pa)<<1|d.rankBit(pb)]
		}
	}
	if len(l1)+len(l2) == 0 {
		if scalar != 1 {
			for i := range d.amp {
				d.amp[i] *= scalar
			}
		}
		return
	}
	if scalar != 1 {
		if len(l1) > 0 {
			l1[0].D[0] *= scalar
			l1[0].D[1] *= scalar
		} else {
			for v := 0; v < 4; v++ {
				l2[0].D[v] *= scalar
			}
		}
	}
	d.shard().ApplyDiagTerms(l1, l2)
}

// applyFused executes one fused op of the current stage on the shard.
func (d *distState) applyFused(op *circuit.FusedOp) {
	switch op.Kind {
	case circuit.FusedDiagonal:
		d.applyDiagTerms(op.D1, op.D2)
	case circuit.FusedDiag1Q:
		d.applyDiagTerms([]circuit.DiagTerm1{{Q: op.Qubits[0], D: [2]complex128{op.M1[0][0], op.M1[1][1]}}}, nil)
	case circuit.FusedGate:
		g := *op.Gate
		switch g.Kind {
		case circuit.KindBarrier, circuit.KindI, circuit.KindMeasure, circuit.KindReset:
			return
		}
		g.Qubits = d.localQubits(g.Qubits)
		d.shard().ApplyGate(g, nil, nil)
	default:
		o := *op
		o.Qubits = d.localQubits(op.Qubits)
		d.shard().ApplyFusedOp(&o, nil, nil)
	}
}

// runProgram executes a fused program under its distributed stage schedule.
func (d *distState) runProgram(prog *circuit.FusedProgram, sched *circuit.DistSchedule) {
	for si := range sched.Stages {
		st := &sched.Stages[si]
		if si > 0 {
			d.remap(st.Layout)
		}
		for _, oi := range st.Ops {
			d.applyFused(&prog.Ops[oi])
		}
	}
}

// distExec is one element's executable form: a staged fused program, or —
// when the shard is too small to host the circuit's gates (more ranks than
// the gate arities allow) — the whole circuit, replicated on every rank.
type distExec struct {
	prog  *circuit.FusedProgram
	sched *circuit.DistSchedule
	whole *circuit.Circuit
}

// compileDist builds the executable form of a bound circuit for
// nLocal-qubit shards. When a passthrough gate is too wide for the shard
// (e.g. CCX with many ranks), it retries once after decomposing to the
// basic gate set; if even 2-qubit gates cannot become shard-resident
// (nLocal < 2), the state is at most 2P amplitudes and runs replicated, so
// every world size up to 2^n stays executable.
func compileDist(c *circuit.Circuit, plan *circuit.FusionPlan, nLocal int) distExec {
	stripped := c.StripMeasurements()
	if plan == nil {
		plan = circuit.PlanFusion(stripped)
	}
	prog := plan.Compile(stripped)
	if sched, err := circuit.PlanDistStages(prog, nLocal); err == nil {
		return distExec{prog: prog, sched: sched}
	}
	tc := circuit.Transpile(stripped, circuit.BasicGateSet())
	prog = circuit.FuseBound(tc)
	if sched, err := circuit.PlanDistStages(prog, nLocal); err == nil {
		return distExec{prog: prog, sched: sched}
	}
	return distExec{whole: stripped}
}

// sameProgramShape reports whether two compiled programs share the op
// structure the stage partitioner reads (kinds and qubit lists), so one
// distributed schedule serves both.
func sameProgramShape(a, b *circuit.FusedProgram) bool {
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	equal := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	for i := range a.Ops {
		oa, ob := &a.Ops[i], &b.Ops[i]
		if oa.Kind != ob.Kind || !equal(oa.Qubits, ob.Qubits) {
			return false
		}
		if oa.Kind == circuit.FusedGate &&
			(oa.Gate.Kind != ob.Gate.Kind || !equal(oa.Gate.Qubits, ob.Gate.Qubits)) {
			return false
		}
	}
	return true
}

// run executes the element on a fresh rank shard.
func (e *distExec) run(d *distState) {
	if e.sched != nil {
		d.runProgram(e.prog, e.sched)
		return
	}
	// Replicated: simulate the whole state, keep this rank's slice.
	full, _ := RunFused(e.whole, nil, 1, nil)
	copy(d.amp, full.Amp[d.comm.Rank()<<uint(d.nLocal):])
	full.Release()
}

// RunDistributed executes a bound circuit on the communicator's ranks
// through the fused stage engine and returns the sampled counts on rank 0
// (nil on other ranks). The world size must be a power of two not exceeding
// 2^n.
func RunDistributed(comm *mpi.Comm, c *circuit.Circuit, shots int, seed int64) (map[string]int, error) {
	counts, _, err := RunDistributedCircuit(comm, c, nil, shots, seed, DistObs{}, 1)
	return counts, err
}

// RunDistributedObs is RunDistributed plus an optional diagonal observable
// (kept for the pre-Pauli callers); the expectation is valid on every rank.
func RunDistributedObs(comm *mpi.Comm, c *circuit.Circuit, shots int, seed int64, diag func(idx int) float64) (map[string]int, *float64, error) {
	return RunDistributedCircuit(comm, c, nil, shots, seed, DistObs{Diag: diag}, 1)
}

// RunDistributedCircuit is the full-featured distributed entry point: fused
// stage execution with an optional cached fusion plan, diagonal or general
// Pauli observables, and per-rank kernel workers.
func RunDistributedCircuit(comm *mpi.Comm, c *circuit.Circuit, plan *circuit.FusionPlan, shots int, seed int64, obs DistObs, workers int) (map[string]int, *float64, error) {
	g, err := distGeometry(comm.Size(), c.NQubits)
	if err != nil {
		return nil, nil, err
	}
	if err := checkBound(c); err != nil {
		return nil, nil, err
	}
	exec := compileDist(c, plan, c.NQubits-g)
	d := newDistState(comm, c.NQubits, g, workers)
	defer d.release()
	exec.run(d)
	var expVal *float64
	switch {
	case obs.Ham != nil:
		v := d.expectationHamiltonian(obs.Ham)
		expVal = &v
	case obs.Diag != nil:
		v := d.expectationDiagonal(obs.Diag)
		expVal = &v
	}
	return d.sample(shots, seed), expVal, nil
}

// RunDistributedState executes a bound circuit through the fused stage
// engine and gathers the final program-ordered amplitudes on rank 0 (nil on
// other ranks) — the equivalence-test and debugging entry point.
func RunDistributedState(comm *mpi.Comm, c *circuit.Circuit, plan *circuit.FusionPlan) ([]complex128, error) {
	g, err := distGeometry(comm.Size(), c.NQubits)
	if err != nil {
		return nil, err
	}
	if err := checkBound(c); err != nil {
		return nil, err
	}
	exec := compileDist(c, plan, c.NQubits-g)
	d := newDistState(comm, c.NQubits, g, 1)
	defer d.release()
	exec.run(d)
	return d.gatherProgram(), nil
}

// RunDistributedBatch executes K bindings of one parametric ansatz inside a
// single persistent world: ranks spawn once, the fusion plan is shared (and
// typically comes from the session's spec store, core.ParseCache), and
// shard buffers recycle through the arena between elements. Results are
// ordered by element; counts live on rank 0's view.
func RunDistributedBatch(w *mpi.World, req DistBatch) ([]DistResult, error) {
	if req.Circuit == nil {
		return nil, fmt.Errorf("statevec: distributed batch needs a circuit")
	}
	g, err := distGeometry(w.Size, req.Circuit.NQubits)
	if err != nil {
		return nil, err
	}
	k := len(req.Bindings)
	if k == 0 {
		return nil, nil
	}
	if req.Seeds != nil && len(req.Seeds) != k {
		return nil, fmt.Errorf("statevec: distributed batch has %d seeds for %d bindings", len(req.Seeds), k)
	}
	plan := req.Plan
	if plan == nil {
		plan = circuit.PlanFusion(req.Circuit.StripMeasurements())
	}
	nLocal := req.Circuit.NQubits - g
	execs := make([]distExec, k)
	for i, b := range req.Bindings {
		bc := req.Circuit.Bind(b)
		if !bc.IsBound() {
			return nil, fmt.Errorf("statevec: batch element %d leaves parameters %v unbound", i, bc.ParamNames())
		}
		// The stage schedule depends only on op structure, which is shared
		// by every binding of one ansatz in the common case — reuse element
		// 0's schedule unless a binding-dependent kernel classification
		// (e.g. an angle collapsing a dense block to a diagonal) changed
		// the compiled shape.
		if i > 0 && execs[0].sched != nil {
			prog := plan.Compile(bc.StripMeasurements())
			if sameProgramShape(prog, execs[0].prog) {
				execs[i] = distExec{prog: prog, sched: execs[0].sched}
				continue
			}
		}
		execs[i] = compileDist(bc, plan, nLocal)
	}
	results := make([]DistResult, k)
	runErr := w.Run(func(comm *mpi.Comm) error {
		for i := range execs {
			d := newDistState(comm, req.Circuit.NQubits, g, req.Workers)
			execs[i].run(d)
			var expVal *float64
			switch {
			case req.Obs.Ham != nil:
				v := d.expectationHamiltonian(req.Obs.Ham)
				expVal = &v
			case req.Obs.Diag != nil:
				v := d.expectationDiagonal(req.Obs.Diag)
				expVal = &v
			}
			seed := int64(i + 1)
			if req.Seeds != nil {
				seed = req.Seeds[i]
			}
			counts := d.sample(req.Shots, seed)
			if comm.Rank() == 0 {
				results[i] = DistResult{Counts: counts, ExpVal: expVal}
			}
			d.release()
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	return results, nil
}

// expectationDiagonal reduces the probability-weighted energy of a diagonal
// observable; the result is valid on every rank.
func (d *distState) expectationDiagonal(f func(idx int) float64) float64 {
	base := d.comm.Rank() << uint(d.nLocal)
	trans := d.indexTranslator()
	var local float64
	for i, a := range d.amp {
		pr := real(a)*real(a) + imag(a)*imag(a)
		if pr > 0 {
			local += pr * f(trans(base|i))
		}
	}
	return d.comm.AllreduceSum(local)
}

// expectationHamiltonian evaluates a general Pauli sum over the distributed
// state: each term basis-changes a scratch shard through the specialized
// permutation/diagonal kernels — Z on a rank-encoded qubit is a per-rank
// sign, X/Y swap whole shards with the partner rank — and the per-rank
// energies are Allreduced once. Valid on every rank.
func (d *distState) expectationHamiltonian(h *pauli.Hamiltonian) float64 {
	if len(h.Terms) == 0 {
		return 0
	}
	nL := d.nLocal
	t := &State{N: nL, Amp: getAmpBuf(nL), Workers: d.workers}
	im := complex(0, 1)
	var local float64
	for _, term := range h.Terms {
		copy(t.Amp, d.amp)
		phase := complex(1, 0)
		for q, op := range term.Ops {
			if op == pauli.I {
				continue
			}
			p := d.pos[q]
			if p < nL {
				switch op {
				case pauli.X:
					t.ApplyPerm1Q(1, 1, p)
				case pauli.Y:
					t.ApplyPerm1Q(-im, im, p)
				case pauli.Z:
					t.ApplyDiag1Q(1, -1, p)
				}
				continue
			}
			bit := d.rankBit(p)
			switch op {
			case pauli.Z:
				if bit == 1 {
					phase = -phase
				}
			case pauli.X, pauli.Y:
				partner := d.comm.Rank() ^ (1 << uint(p-nL))
				t.Amp = d.comm.Sendrecv(partner, d.nextTag(), t.Amp).([]complex128)
				if op == pauli.Y {
					if bit == 1 {
						phase *= im
					} else {
						phase *= -im
					}
				}
			}
		}
		var acc complex128
		for i, a := range d.amp {
			acc += cmplx.Conj(a) * t.Amp[i]
		}
		local += term.Coeff * real(phase*acc)
	}
	putAmpBuf(nL, t.Amp)
	return d.comm.AllreduceSum(local)
}

// gatherProgram collects the full program-ordered state on rank 0.
func (d *distState) gatherProgram() []complex128 {
	shard := append([]complex128(nil), d.amp...)
	gathered := d.comm.Gather(0, shard)
	if d.comm.Rank() != 0 {
		return nil
	}
	out := make([]complex128, 1<<uint(d.n))
	trans := d.indexTranslator()
	for r, g := range gathered {
		buf := g.([]complex128)
		base := r << uint(d.nLocal)
		for i, a := range buf {
			out[trans(base|i)] = a
		}
	}
	return out
}

// sample draws shots bitstrings from the distributed distribution. Rank 0
// assigns shots to ranks by their probability mass, each rank samples its
// local block, and rank 0 merges the results — deterministic run-to-run
// for a fixed seed, rank count, and layout (the split is drawn against
// physical per-rank masses, so different P or a different final layout
// yields a different — equally valid — histogram).
func (d *distState) sample(shots int, seed int64) map[string]int {
	if shots <= 0 { // every rank sees the same shots, so all skip the collectives
		return nil
	}
	var localMass float64
	prob := getF64Buf(d.nLocal)
	for i, a := range d.amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		prob[i] = p
		localMass += p
	}
	masses := d.comm.Allgather(localMass)
	// Deterministic shot split: every rank computes the same assignment.
	rng := rand.New(rand.NewSource(seed))
	perRank := make([]int, d.comm.Size())
	var total float64
	rankCum := make([]float64, d.comm.Size())
	for r, m := range masses {
		total += m.(float64)
		rankCum[r] = total
	}
	for s := 0; s < shots; s++ {
		x := rng.Float64() * total
		r := sort.SearchFloat64s(rankCum, x)
		if r >= len(perRank) {
			r = len(perRank) - 1
		}
		perRank[r]++
	}
	// Each rank draws its share through the shared alias sampler.
	localRng := rand.New(rand.NewSource(seed + int64(d.comm.Rank()) + 1))
	idxCounts := aliasDraw(prob, d.nLocal, perRank[d.comm.Rank()], localMass, localRng)
	putF64Buf(d.nLocal, prob)
	localCounts := make(map[string]int, len(idxCounts))
	base := d.comm.Rank() << uint(d.nLocal)
	trans := d.indexTranslator()
	for i, c := range idxCounts {
		localCounts[FormatBits(trans(base|i), d.n)] = c
	}
	gathered := d.comm.Gather(0, localCounts)
	if d.comm.Rank() != 0 {
		return nil
	}
	merged := make(map[string]int)
	for _, g := range gathered {
		for k, v := range g.(map[string]int) {
			merged[k] += v
		}
	}
	return merged
}
