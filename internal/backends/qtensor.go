package backends

import (
	"fmt"
	"sort"
	"strings"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/mpi"
	"qfw/internal/prte"
	"qfw/internal/statevec"
	"qfw/internal/tensornet"
)

// qtensor is the QTensor/qtree analog: tree tensor-network contraction.
// As in the paper, QFw drives it for full-state contraction, which makes it
// competitive on shallow circuits but sharply slower past ~24 qubits. The
// "mpi" sub-backend distributes output-variable slices across ranks, the
// same mechanism qtree uses via mpi4py.
type qtensor struct {
	env   *core.Env
	cache *core.ParseCache
}

func newQTensor(env *core.Env) (core.Executor, error) {
	return &qtensor{env: env, cache: core.NewParseCache()}, nil
}

func (b *qtensor) Name() string { return "qtensor" }

func (b *qtensor) Capabilities() core.Capabilities {
	return core.Capabilities{
		Backend:             "qtensor",
		Subbackends:         []string{"numpy", "mpi", "cupy", "pytorch"},
		CPU:                 true,
		GPU:                 true,
		NativeMPI:           true,
		DeterministicSeeded: true,
		Notes:               "Tree TN (qtree). Designed for QAOA expectation estimation on sparse QUBOs, used by QFw for full-state contraction. Tested thoroughly with numpy; MPI via output-variable slicing.",
	}
}

func (b *qtensor) Execute(spec core.CircuitSpec, opts core.RunOptions) (core.ExecResult, error) {
	c, err := parseSpec(spec)
	if err == nil {
		err = opts.Observable.Validate(c.NQubits)
	}
	if err != nil {
		return core.ExecResult{}, err
	}
	return b.executeParsed(c, opts)
}

// ExecuteBatch implements core.BatchExecutor: rebind each element into the
// cached parse of the ansatz and contract it per element. runBatch goes
// through cache.GetFused, so the QASM parse (and fusion plan, unused here)
// is paid once per spec, never per binding — pinned by the parse-count
// regression in TestLocalBackendsBatchParseOnce.
func (b *qtensor) ExecuteBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	if _, err := parsed(b.cache, spec, opts); err != nil {
		return nil, err
	}
	return runBatch(b.cache, spec, bindings, opts,
		func(c *circuitT, _ *circuit.FusionPlan, _ *circuit.DistSchedule, opts core.RunOptions) (core.ExecResult, error) {
			return b.executeParsed(c, opts)
		})
}

func (b *qtensor) executeParsed(c *circuitT, opts core.RunOptions) (core.ExecResult, error) {
	sub := normalizeSub(opts.Subbackend, "numpy")
	switch sub {
	case "cupy":
		return core.ExecResult{}, fmt.Errorf("qtensor: cupy %w", core.ErrPlanned)
	case "pytorch":
		return core.ExecResult{}, fmt.Errorf("qtensor: pytorch %w", core.ErrPlanned)
	case "numpy", "mpi":
	default:
		return core.ExecResult{}, fmt.Errorf("qtensor: unknown sub-backend %q", opts.Subbackend)
	}
	if c.NQubits > tensornet.MaxOpenQubits {
		return core.ExecResult{}, core.Infeasible("qtensor: full-state contraction of %d qubits exceeds cap %d", c.NQubits, tensornet.MaxOpenQubits)
	}
	if err := checkStateVectorBudget(c.NQubits, b.env.MemBudgetBytes); err != nil {
		return core.ExecResult{}, err
	}
	if sub == "numpy" {
		net, err := tensornet.Build(c)
		if err != nil {
			return core.ExecResult{}, fmt.Errorf("qtensor/numpy: %w", err)
		}
		amps, err := net.ContractAll()
		if err != nil {
			if strings.Contains(err.Error(), "exceeds cap") {
				return core.ExecResult{}, core.Infeasible("qtensor/numpy: %v", err)
			}
			return core.ExecResult{}, fmt.Errorf("qtensor/numpy: %w", err)
		}
		return core.ExecResult{
			Counts: sampleAmps(amps, c.NQubits, opts),
			ExpVal: expFromAmps(amps, opts.Observable),
			Extra:  map[string]float64{"peak_rank": float64(net.PeakRank)},
		}, nil
	}
	return b.runSliced(c, opts)
}

// runSliced contracts the network with the top log2(P) output variables
// fixed per rank, gathers the slices at rank 0, and samples there.
func (b *qtensor) runSliced(c *circuitT, opts core.RunOptions) (core.ExecResult, error) {
	nodes := opts.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	if nodes > b.env.DVM.Nodes() {
		nodes = b.env.DVM.Nodes()
	}
	ppn := opts.ProcsPerNode
	if ppn <= 0 {
		ppn = 2
	}
	total := clampPow2(nodes * ppn)
	for total > 1<<uint(c.NQubits) {
		total /= 2
	}
	g := 0
	for 1<<uint(g) < total {
		g++
	}
	useNodes := nodes
	if total < nodes {
		useNodes = total
	}
	pg, err := b.env.DVM.Spawn(prte.Placement{Nodes: useNodes, ProcsPerNode: (total + useNodes - 1) / useNodes})
	if err != nil {
		return core.ExecResult{}, fmt.Errorf("qtensor: %w", err)
	}
	base, err := tensornet.Build(c)
	if err != nil {
		pg.Release()
		return core.ExecResult{}, err
	}
	world := mpi.NewWorld(total, mpi.WithPlacement(pg.Places[:total], b.env.Machine.Net))
	var counts map[string]int
	var expVal *float64
	runErr := func() error {
		defer pg.Release()
		return world.Run(func(comm *mpi.Comm) error {
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
			counts = sampleAmps(full, c.NQubits, opts)
			expVal = expFromAmps(full, opts.Observable)
			return nil
		})
	}()
	if runErr != nil {
		return core.ExecResult{}, runErr
	}
	return core.ExecResult{Counts: counts, ExpVal: expVal, Extra: map[string]float64{"ranks": float64(total)}}, nil
}

// expFromAmps evaluates an observable exactly over an amplitude vector
// (nil observable -> nil). General Pauli sums reuse the state-vector
// expectation machinery on the contracted amplitudes.
func expFromAmps(amps []complex128, obs *core.Observable) *float64 {
	if obs == nil {
		return nil
	}
	n := 0
	for 1<<uint(n) < len(amps) {
		n++
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

// sampleAmps draws opts.Shots counts from an amplitude vector (nil for an
// analytic request).
func sampleAmps(amps []complex128, n int, opts core.RunOptions) map[string]int {
	shots := opts.Shots
	if shots <= 0 {
		return nil
	}
	rng := newRNG(opts)
	cum := make([]float64, len(amps))
	var acc float64
	for i, a := range amps {
		acc += real(a)*real(a) + imag(a)*imag(a)
		cum[i] = acc
	}
	counts := make(map[string]int)
	for s := 0; s < shots; s++ {
		x := rng.Float64() * acc
		i := sort.SearchFloat64s(cum, x)
		if i >= len(cum) {
			i = len(cum) - 1
		}
		counts[statevec.FormatBits(i, n)]++
	}
	return counts
}
