package backends

import (
	"fmt"
	"runtime"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/faults"
	"qfw/internal/mpi"
	"qfw/internal/prte"
	"qfw/internal/statevec"
)

// spawnRetry bounds the re-attempts at forming an MPI world when the DVM's
// core slots are transiently exhausted by concurrent process groups. The
// delays are sub-millisecond: slots free as soon as a neighbouring group
// finishes its run.
var spawnRetry = faults.Policy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond}

// nwqsim is the SV-Sim analog: a state-vector engine whose native MPI
// distribution makes it the strong performer on large entangled workloads
// (GHZ, HAM) and large HHL instances in the paper. The mpi sub-backend runs
// the fusion-aware distributed engine: fused stage execution with
// bit-permutation remap exchanges, rank-local diagonal layers, and
// distributed diagonal/general-Pauli observables.
type nwqsim struct {
	env   *core.Env
	cache *core.ParseCache
}

func newNWQSim(env *core.Env) (core.Executor, error) {
	return &nwqsim{env: env, cache: core.NewParseCache()}, nil
}

func (b *nwqsim) Name() string { return "nwqsim" }

func (b *nwqsim) Capabilities() core.Capabilities {
	return core.Capabilities{
		Backend:             "nwqsim",
		Subbackends:         []string{"mpi", "openmp", "cpu", "amdgpu"},
		CPU:                 true,
		GPU:                 true,
		NativeMPI:           true,
		Gradients:           true,
		DeterministicSeeded: true,
		Notes:               "Fully integrated. AMDGPU sub-backend is simulated by the chunked CPU kernels (HIP+MPI lacked complete upstream support at development time). Adjoint gradients run node-local on the chunked kernels for every sub-backend.",
	}
}

func (b *nwqsim) Execute(spec core.CircuitSpec, opts core.RunOptions) (core.ExecResult, error) {
	c, err := parseSpec(spec)
	if err == nil {
		err = opts.Observable.Validate(c.NQubits)
	}
	if err != nil {
		return core.ExecResult{}, err
	}
	return b.executeParsed(c, nil, nil, opts)
}

// ExecuteBatch implements core.BatchExecutor. The mpi sub-backend gets a
// dedicated pipeline: one process group and one mpi.World persist across
// all K bindings (ranks spawn once per batch, not once per element), and
// the spec-hash fused plan from the ParseCache is shared by every element.
// Other sub-backends rebind each element into the cached parse and fan out
// across the local worker pool.
func (b *nwqsim) ExecuteBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	if _, err := parsed(b.cache, spec, opts); err != nil {
		return nil, err
	}
	if normalizeSub(opts.Subbackend, "mpi") != "mpi" {
		return runBatch(b.cache, spec, bindings, opts, b.executeParsed)
	}
	base, plan, err := b.cache.GetFused(spec)
	if err != nil {
		return nil, fmt.Errorf("backend: bad circuit spec: %w", err)
	}
	if err := checkStateVectorBudget(base.NQubits, b.env.MemBudgetBytes); err != nil {
		return nil, err
	}
	pg, world, total, err := b.spawnWorld(base.NQubits, opts)
	if err != nil {
		// The MPI world would not form even after retries: degrade to the
		// node-local engine rather than failing the batch. Seeds are
		// unchanged, so the fallback reproduces the distributed results.
		return b.localFallbackBatch(spec, bindings, opts, err)
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

// ExecuteGradient implements core.GradientExecutor. The adjoint sweep is
// rank-local by design (three full-width states with per-op reverse
// traffic distribute poorly next to the staged forward engine), so every
// sub-backend — mpi included — differentiates on the node-local chunked
// kernels; distributed execution stays the forward path's job.
func (b *nwqsim) ExecuteGradient(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.GradResult, error) {
	c, err := parsed(b.cache, spec, opts)
	if err != nil {
		return nil, err
	}
	if err := checkGradientBudget(c.NQubits, b.env.MemBudgetBytes); err != nil {
		return nil, err
	}
	workers := opts.ProcsPerNode
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runGradient(b.cache, spec, bindings, opts, workers)
}

func (b *nwqsim) executeParsed(c *circuitT, plan *circuit.FusionPlan, sched *circuit.DistSchedule, opts core.RunOptions) (core.ExecResult, error) {
	if err := checkStateVectorBudget(c.NQubits, b.env.MemBudgetBytes); err != nil {
		return core.ExecResult{}, err
	}
	sub := normalizeSub(opts.Subbackend, "mpi")
	switch sub {
	case "mpi":
		return b.runDistributed(c, plan, opts)
	case "openmp", "amdgpu":
		workers := opts.ProcsPerNode
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		counts, ev := simulateSV(c, plan, sched, opts.Shots, workers, newRNG(opts), opts.Observable)
		return core.ExecResult{Counts: counts, ExpVal: ev}, nil
	case "cpu":
		counts, ev := simulateSV(c, plan, sched, opts.Shots, 1, newRNG(opts), opts.Observable)
		return core.ExecResult{Counts: counts, ExpVal: ev}, nil
	default:
		return core.ExecResult{}, fmt.Errorf("nwqsim: unknown sub-backend %q", sub)
	}
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
	w := runtime.GOMAXPROCS(0) / ranks
	if w < 1 {
		return 1
	}
	return w
}

// spawnWorld allocates an MPI process group on the DVM per the requested
// (#N, #P) placement and wraps it in a communicator world whose transfer
// costs follow the machine's interconnect model.
func (b *nwqsim) spawnWorld(nqubits int, opts core.RunOptions) (*prte.ProcGroup, *mpi.World, int, error) {
	nodes := opts.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	if nodes > b.env.DVM.Nodes() {
		nodes = b.env.DVM.Nodes()
	}
	ppn := opts.ProcsPerNode
	if ppn <= 0 {
		ppn = 4
	}
	// Total ranks must be a power of two and cannot exceed 2^n amplitudes.
	total := clampPow2(nodes * ppn)
	for total > 1<<uint(nqubits) {
		total /= 2
	}
	useNodes := nodes
	if total < nodes {
		useNodes = total
	}
	var pg *prte.ProcGroup
	err := spawnRetry.Do(func(int) error {
		var err error
		pg, err = b.env.DVM.Spawn(prte.Placement{Nodes: useNodes, ProcsPerNode: (total + useNodes - 1) / useNodes})
		return err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("nwqsim: %w", err)
	}
	// The spawn may round up ranks beyond a power of two when total does not
	// divide evenly; rebuild a world of exactly `total` ranks placed on the
	// first `total` slots.
	world := mpi.NewWorld(total, mpi.WithPlacement(pg.Places[:total], b.env.Machine.Net))
	return pg, world, total, nil
}

// localFallbackBatch is the graceful-degradation path when the MPI world
// cannot form: the whole batch runs on the node-local openmp engine and
// every result is tagged Extra["mpi_fallback"] so callers can see the
// route change. Failures report both the spawn and the local error.
func (b *nwqsim) localFallbackBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions, spawnErr error) ([]core.ExecResult, error) {
	lopts := opts
	lopts.Subbackend = "openmp"
	results, err := runBatch(b.cache, spec, bindings, lopts, b.executeParsed)
	if err != nil {
		return nil, fmt.Errorf("nwqsim: local fallback failed: %w (after spawn failure: %v)", err, spawnErr)
	}
	for i := range results {
		if results[i].Extra == nil {
			results[i].Extra = map[string]float64{}
		}
		results[i].Extra["mpi_fallback"] = 1
	}
	return results, nil
}

// runDistributed executes one bound circuit on a fresh process group through
// the fused distributed engine.
func (b *nwqsim) runDistributed(c *circuitT, plan *circuit.FusionPlan, opts core.RunOptions) (core.ExecResult, error) {
	pg, world, total, err := b.spawnWorld(c.NQubits, opts)
	if err != nil {
		// Degrade a single distributed execution to the node-local engine,
		// tagged so the route change is visible.
		lopts := opts
		lopts.Subbackend = "openmp"
		res, lerr := b.executeParsed(c, plan, nil, lopts)
		if lerr != nil {
			return core.ExecResult{}, fmt.Errorf("nwqsim: local fallback failed: %w (after spawn failure: %v)", lerr, err)
		}
		if res.Extra == nil {
			res.Extra = map[string]float64{}
		}
		res.Extra["mpi_fallback"] = 1
		return res, nil
	}
	obs := distObsFor(opts.Observable, c.NQubits)
	workers := workersPerRank(total)
	var counts map[string]int
	var expVal *float64
	runErr := func() error {
		defer pg.Release()
		return world.Run(func(comm *mpi.Comm) error {
			got, ev, err := statevec.RunDistributedCircuit(comm, c, plan, opts.Shots, seedOf(opts), obs, workers)
			if comm.Rank() == 0 {
				counts = got
				expVal = ev
			}
			return err
		})
	}()
	if runErr != nil {
		return core.ExecResult{}, runErr
	}
	return core.ExecResult{Counts: counts, ExpVal: expVal, Extra: map[string]float64{"ranks": float64(total)}}, nil
}
