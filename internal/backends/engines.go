package backends

import (
	"fmt"
	"runtime"
	"strings"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/mpi"
	"qfw/internal/mps"
	"qfw/internal/stabilizer"
	"qfw/internal/statevec"
	"qfw/internal/tensornet"
)

// engine is one simulation method, written once. execute runs a single
// request, seeded by seedOf; batch runs the bindings of a spec, element i
// seeded by opts.ForElement(i). c is the spec's parse from the session's
// spec store, which engines must not modify.
type engine interface {
	execute(l *local, s sub, spec core.CircuitSpec, c *circuit.Circuit, opts core.RunOptions) (core.ExecResult, error)
	batch(l *local, s sub, spec core.CircuitSpec, c *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error)
}

// The engines that run each bound circuit on its own.
var (
	denseSV       = perCircuit{run: runDense, dense: true}
	stabilizerEng = perCircuit{run: runStabilizer}
	tensorNet     = perCircuit{run: runTensorNet}
	slicedTN      = perCircuit{run: runSliced}
	// refused runs nothing: it returns the row's error per run, after
	// binding, for records with late sub-backend errors.
	refused = perCircuit{run: func(_ *local, s sub, _ *circuit.Circuit, _ plans, _ core.RunOptions) (core.ExecResult, error) {
		return core.ExecResult{}, s.err
	}}
)

// plans is what a dense run takes from the spec store: the fusion plan of
// the measurement-stripped body and, at MinQubits and above, its tile
// schedule (nil when the body does not tile or is too small to stage).
// Both are exactly what statevec.RunFused would compute on the spot.
type plans struct {
	fuse  *circuit.FusionPlan
	sched *circuit.DistSchedule
}

// perCircuit adapts a runner of one bound circuit into an engine. A batch
// rebinds each element into the stored parse and fans the elements out on
// a core-bounded pool; dense runners get the spec's stored plans, fetched
// once per request (the router's fusion plan, when it routed the spec).
type perCircuit struct {
	run   func(l *local, s sub, c *circuit.Circuit, p plans, opts core.RunOptions) (core.ExecResult, error)
	dense bool
}

func (e perCircuit) execute(l *local, s sub, spec core.CircuitSpec, c *circuit.Circuit, opts core.RunOptions) (core.ExecResult, error) {
	if !c.IsBound() {
		return core.ExecResult{}, parametric(spec, c.ParamNames())
	}
	p, err := e.plansFor(l, spec, c.NQubits)
	if err != nil {
		return core.ExecResult{}, err
	}
	return e.run(l, s, c, p, opts)
}

func (e perCircuit) batch(l *local, s sub, spec core.CircuitSpec, base *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	p, err := e.plansFor(l, spec, base.NQubits)
	if err != nil {
		return nil, err
	}
	return fanOut(len(bindings), func(i int) (core.ExecResult, error) {
		c := base.Bind(bindings[i])
		if !c.IsBound() {
			return core.ExecResult{}, fmt.Errorf("backend: binding leaves params %v unbound (batch element %d)", c.ParamNames(), i)
		}
		res, err := e.run(l, s, c, p, opts.ForElement(i))
		if err != nil {
			return core.ExecResult{}, fmt.Errorf("batch element %d: %w", i, err)
		}
		return res, nil
	})
}

func (e perCircuit) plansFor(l *local, spec core.CircuitSpec, n int) (plans, error) {
	if !e.dense {
		return plans{}, nil
	}
	var p plans
	var err error
	if tun := statevec.CurrentTuning(); n >= tun.MinQubits {
		_, p.fuse, p.sched, err = l.env.Specs().GetStaged(spec, tun.TileBitsFor(n))
	} else {
		_, p.fuse, err = l.env.Specs().GetFused(spec)
	}
	if err != nil {
		return plans{}, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	return p, nil
}

// runDense is the node-local state-vector engine: fused, or staged over
// cache-blocked tiles when the stored schedule says so.
func runDense(l *local, s sub, c *circuit.Circuit, p plans, opts core.RunOptions) (core.ExecResult, error) {
	if err := checkStateVectorBudget(c.NQubits, l.env.MemBudgetBytes); err != nil {
		return core.ExecResult{}, err
	}
	rng := newRNG(opts)
	st, _ := statevec.RunFusedStaged(c.StripMeasurements(), p.fuse, p.sched, l.workers(s.width, opts), rng)
	defer st.Release()
	res := core.ExecResult{Counts: st.SampleCounts(opts.Shots, rng)}
	if obs := opts.Observable; obs != nil {
		var v float64
		if obs.IsDiagonal() {
			v = st.ExpectationDiagonal(obs.EnergyOfIndex)
		} else {
			v = st.ExpectationHamiltonian(obsHamiltonian(obs, c.NQubits))
		}
		res.ExpVal = &v
	}
	return res, nil
}

// runStabilizer samples a Clifford circuit on the tableau engine; a
// diagonal observable is evaluated exactly as a sum of Z-strings.
func runStabilizer(_ *local, s sub, c *circuit.Circuit, _ plans, opts core.RunOptions) (core.ExecResult, error) {
	counts, err := stabilizer.Simulate(c, opts.Shots, newRNG(opts))
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("%s: %w", s.label, err)
	}
	res := core.ExecResult{Counts: counts}
	if obs := opts.Observable; obs != nil {
		if !obs.IsDiagonal() {
			return core.ExecResult{}, fmt.Errorf("%s: only diagonal observables are supported", s.label)
		}
		coeffs, zs := zTerms(obs)
		v, err := stabilizer.ExpectationZ(c, coeffs, zs)
		if err != nil {
			return core.ExecResult{}, fmt.Errorf("%s: %w", s.label, err)
		}
		res.ExpVal = &v
	}
	return res, nil
}

// zTerms flattens a diagonal observable into Z-strings over qubits, in the
// order its energy sums in: Fields, Couplings, then Paulis.
func zTerms(o *core.Observable) (coeffs []float64, zs [][]int) {
	for i, f := range o.Fields {
		if f != 0 {
			coeffs, zs = append(coeffs, f), append(zs, []int{i})
		}
	}
	for _, c := range o.Couplings {
		if c.V != 0 {
			coeffs, zs = append(coeffs, c.V), append(zs, []int{c.I, c.J})
		}
	}
	for _, t := range o.Paulis {
		var qs []int
		for q := 0; q < len(t.Ops); q++ {
			if t.Ops[q] == 'Z' {
				qs = append(qs, q)
			}
		}
		coeffs, zs = append(coeffs, t.Coeff), append(zs, qs)
	}
	return coeffs, zs
}

// runTensorNet contracts the whole network to its amplitudes and samples
// them.
func runTensorNet(l *local, s sub, c *circuit.Circuit, _ plans, opts core.RunOptions) (core.ExecResult, error) {
	if err := l.contractible(c); err != nil {
		return core.ExecResult{}, err
	}
	net, err := tensornet.Build(c)
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("%s: %w", s.label, err)
	}
	amps, err := net.ContractAll()
	if err != nil {
		if strings.Contains(err.Error(), "exceeds cap") {
			return core.ExecResult{}, core.Infeasible("%s: %v", s.label, err)
		}
		return core.ExecResult{}, fmt.Errorf("%s: %w", s.label, err)
	}
	return core.ExecResult{
		Counts: tensornet.SampleAmplitudes(amps, c.NQubits, opts.Shots, newRNG(opts)),
		ExpVal: expFromAmps(amps, c.NQubits, opts.Observable),
		Extra:  map[string]float64{"peak_rank": float64(net.PeakRank)},
	}, nil
}

// runSliced contracts the network with the top log2(P) output variables
// fixed per rank, gathers the slices at rank 0, and samples there.
func runSliced(l *local, _ sub, c *circuit.Circuit, _ plans, opts core.RunOptions) (core.ExecResult, error) {
	if err := l.contractible(c); err != nil {
		return core.ExecResult{}, err
	}
	pg, world, total, err := l.spawn(c.NQubits, opts)
	if err != nil {
		return core.ExecResult{}, err
	}
	defer pg.Release()
	base, err := tensornet.Build(c)
	if err != nil {
		return core.ExecResult{}, err
	}
	g := 0
	for 1<<uint(g) < total {
		g++
	}
	var res core.ExecResult
	err = world.Run(func(comm *mpi.Comm) error {
		// Fix the top g output qubits to this rank's bits.
		fixed := map[int]int{}
		sliced := base.Slice(nil)
		for bit := 0; bit < g; bit++ {
			q := c.NQubits - 1 - bit
			fixed[base.Out[q]] = (comm.Rank() >> uint(g-1-bit)) & 1
		}
		if len(fixed) > 0 {
			sliced = base.Slice(fixed)
			for q := c.NQubits - g; q < c.NQubits; q++ {
				sliced.Out[q] = -1
			}
		}
		amps, err := sliced.ContractAll()
		if err != nil {
			return err
		}
		gathered := comm.Gather(0, amps)
		if comm.Rank() != 0 {
			return nil
		}
		full := make([]complex128, 0, 1<<uint(c.NQubits))
		for r := 0; r < total; r++ {
			full = append(full, gathered[r].([]complex128)...)
		}
		res.Counts = tensornet.SampleAmplitudes(full, c.NQubits, opts.Shots, newRNG(opts))
		res.ExpVal = expFromAmps(full, c.NQubits, opts.Observable)
		return nil
	})
	if err != nil {
		return core.ExecResult{}, err
	}
	res.Extra = map[string]float64{"ranks": float64(total)}
	return res, nil
}

// expFromAmps evaluates an observable exactly over an amplitude vector
// (nil observable -> nil). General Pauli sums reuse the state-vector
// expectation machinery on the contracted amplitudes.
func expFromAmps(amps []complex128, n int, obs *core.Observable) *float64 {
	if obs == nil {
		return nil
	}
	s := &statevec.State{N: n, Amp: amps, Workers: 1}
	var v float64
	if obs.IsDiagonal() {
		v = s.ExpectationDiagonal(obs.EnergyOfIndex)
	} else {
		v = s.ExpectationHamiltonian(obsHamiltonian(obs, n))
	}
	return &v
}

// distributedSV is the fusion-aware distributed state-vector engine: fused
// stage execution with bit-permutation remap exchanges, rank-local diagonal
// layers, and distributed observables. When the MPI world will not form it
// degrades to the node-local engine at ProcsPerNode width, with the same
// seeds, and tags every result Extra["mpi_fallback"].
type distributedSV struct{}

func (distributedSV) execute(l *local, s sub, spec core.CircuitSpec, c *circuit.Circuit, opts core.RunOptions) (core.ExecResult, error) {
	if !c.IsBound() {
		return core.ExecResult{}, parametric(spec, c.ParamNames())
	}
	if err := checkStateVectorBudget(c.NQubits, l.env.MemBudgetBytes); err != nil {
		return core.ExecResult{}, err
	}
	pg, world, total, err := l.spawn(c.NQubits, opts)
	if err != nil {
		res, lerr := denseSV.execute(l, sub{width: procs}, spec, c, opts)
		if lerr != nil {
			return core.ExecResult{}, fmt.Errorf("%s: local fallback failed: %w (after spawn failure: %v)", l.Name(), lerr, err)
		}
		return fellBack([]core.ExecResult{res})[0], nil
	}
	defer pg.Release()
	_, plan, err := l.env.Specs().GetFused(spec)
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	obs := distObsFor(opts.Observable, c.NQubits)
	res := core.ExecResult{Extra: map[string]float64{"ranks": float64(total)}}
	err = world.Run(func(comm *mpi.Comm) error {
		counts, ev, err := statevec.RunDistributedCircuit(comm, c, plan, opts.Shots, seedOf(opts), obs, workersPerRank(total))
		if comm.Rank() == 0 {
			res.Counts, res.ExpVal = counts, ev
		}
		return err
	})
	if err != nil {
		return core.ExecResult{}, err
	}
	return res, nil
}

// batch keeps one process group and one world across all bindings (ranks
// spawn once per batch, not once per element) and shares the stored plan.
func (distributedSV) batch(l *local, s sub, spec core.CircuitSpec, base *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	_, plan, err := l.env.Specs().GetFused(spec)
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	if err := checkStateVectorBudget(base.NQubits, l.env.MemBudgetBytes); err != nil {
		return nil, err
	}
	pg, world, total, err := l.spawn(base.NQubits, opts)
	if err != nil {
		res, lerr := denseSV.batch(l, sub{width: procs}, spec, base, bindings, opts)
		if lerr != nil {
			return nil, fmt.Errorf("%s: local fallback failed: %w (after spawn failure: %v)", l.Name(), lerr, err)
		}
		return fellBack(res), nil
	}
	defer pg.Release()
	seeds := make([]int64, len(bindings))
	maps := make([]map[string]float64, len(bindings))
	for i, bd := range bindings {
		seeds[i] = opts.ForElement(i).Seed
		maps[i] = bd
	}
	res, err := statevec.RunDistributedBatch(world, statevec.DistBatch{
		Circuit:  base,
		Plan:     plan,
		Bindings: maps,
		Shots:    opts.Shots,
		Seeds:    seeds,
		Workers:  workersPerRank(total),
		Obs:      distObsFor(opts.Observable, base.NQubits),
	})
	if err != nil {
		return nil, err
	}
	out := make([]core.ExecResult, len(res))
	for i, r := range res {
		out[i] = core.ExecResult{Counts: r.Counts, ExpVal: r.ExpVal, Extra: map[string]float64{"ranks": float64(total)}}
	}
	return out, nil
}

// fellBack tags results the node-local engine produced in place of the
// distributed one.
func fellBack(res []core.ExecResult) []core.ExecResult {
	for i := range res {
		if res[i].Extra == nil {
			res[i].Extra = map[string]float64{}
		}
		res[i].Extra["mpi_fallback"] = 1
	}
	return res
}

// distObsFor maps a wire-format observable onto the distributed engine's
// evaluation paths: diagonal operators use the basis-index fast path;
// anything with X/Y terms becomes a Pauli Hamiltonian evaluated by local
// basis change plus one energy Allreduce.
func distObsFor(o *core.Observable, n int) statevec.DistObs {
	if o == nil {
		return statevec.DistObs{}
	}
	if o.IsDiagonal() {
		return statevec.DistObs{Diag: o.EnergyOfIndex}
	}
	return statevec.DistObs{Ham: obsHamiltonian(o, n)}
}

// workersPerRank splits the host cores across the rank goroutines so the
// per-shard kernel pool does not oversubscribe the machine.
func workersPerRank(ranks int) int {
	return max(runtime.GOMAXPROCS(0)/ranks, 1)
}

// compiledMPS runs the routed MPS schedule the spec store keeps per spec
// (parse, transpile, fusion plan and swap route, once per distinct spec):
// a single run at the row's kernel width, batch elements at width 1 — the
// parallelism budget goes to the fan-out. Failures carry the row's label.
type compiledMPS struct{}

func (compiledMPS) execute(l *local, s sub, spec core.CircuitSpec, _ *circuit.Circuit, opts core.RunOptions) (core.ExecResult, error) {
	cc, err := compileMPS(l.env.Specs(), spec)
	if err == nil && len(cc.Params()) > 0 {
		err = parametric(spec, cc.Params())
	}
	var res core.ExecResult
	if err == nil {
		res, err = runMPSOne(cc, nil, opts, s.bond, l.workers(s.width, opts))
	}
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("%s: %w", s.label, err)
	}
	return res, nil
}

func (compiledMPS) batch(l *local, s sub, spec core.CircuitSpec, _ *circuit.Circuit, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	cc, err := compileMPS(l.env.Specs(), spec)
	var out []core.ExecResult
	if err == nil {
		out, err = fanOut(len(bindings), func(i int) (core.ExecResult, error) {
			res, err := runMPSOne(cc, bindings[i], opts.ForElement(i), s.bond, 1)
			if err != nil {
				return core.ExecResult{}, fmt.Errorf("batch element %d: %w", i, err)
			}
			return res, nil
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.label, err)
	}
	return out, nil
}

// compileMPS fetches the compiled MPS schedule of a spec through the store.
func compileMPS(specs *core.ParseCache, spec core.CircuitSpec) (*mps.Compiled, error) {
	v, err := specs.Memo(spec, "mps-schedule", func(c *circuit.Circuit) (any, error) {
		return mps.CompileCircuit(c)
	})
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	return v.(*mps.Compiled), nil
}

// runMPSOne executes one binding of a compiled MPS schedule and marshals
// the unified result: counts, cumulative discarded weight, the
// multiplicative fidelity estimate, and the exact <H> when an observable is
// attached.
func runMPSOne(cc *mps.Compiled, binding core.Bindings, opts core.RunOptions, defaultBond, workers int) (core.ExecResult, error) {
	mopt := mps.Options{MaxBond: opts.MaxBond, Cutoff: opts.Cutoff, Workers: workers}
	if mopt.MaxBond <= 0 {
		mopt.MaxBond = defaultBond
	}
	m, err := cc.Execute(binding, mopt)
	if err != nil {
		return core.ExecResult{}, err
	}
	defer m.Release()
	var ev *float64
	if opts.Observable != nil {
		v := m.ExpectationHamiltonian(obsHamiltonian(opts.Observable, cc.N))
		ev = &v
	}
	return core.ExecResult{
		Counts:   m.Sample(opts.Shots, newRNG(opts)),
		TruncErr: m.TruncErr,
		ExpVal:   ev,
		Extra: map[string]float64{
			"mps_fidelity":  m.Fidelity(),
			"mps_peak_bond": float64(m.PeakBond()),
			"mps_swaps":     float64(cc.Swaps),
		},
	}, nil
}

// fanOut runs n batch elements on a core-bounded pool and returns their
// results in order, or the lowest failing element's error.
func fanOut(n int, run func(i int) (core.ExecResult, error)) ([]core.ExecResult, error) {
	out := make([]core.ExecResult, n)
	errs := make([]error, n)
	core.FanOut(n, runtime.GOMAXPROCS(0), func(i int) { out[i], errs[i] = run(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parametric is the error of a single run of a spec with free parameters.
func parametric(spec core.CircuitSpec, params []string) error {
	return fmt.Errorf("backend: parametric spec %q requires batch execution (unbound params %v)", spec.Name, params)
}
