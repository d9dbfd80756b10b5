package backends

import (
	"fmt"
	"runtime"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/cost"
	"qfw/internal/faults"
	"qfw/internal/mpi"
	"qfw/internal/mps"
	"qfw/internal/prte"
	"qfw/internal/tensornet"
)

// record is one local Table-1 backend: its capability row, its default
// sub-backend, and what each sub-backend name runs.
type record struct {
	caps core.Capabilities
	def  string
	subs map[string]sub
	// lateErrors defers a sub-backend's error to each run, after binding
	// (so a batch reports it per element); otherwise it is returned as soon
	// as the spec parses.
	lateErrors bool
	gradWidth  width // kernel width of an adjoint sweep
	ranks      int   // MPI ranks per node when a request names none
}

// sub is one row of a backend's sub-backend table: an engine with its
// kernel-width rule and MPS bond cap, or the error of a name that does not
// run yet.
type sub struct {
	eng   engine
	width width
	bond  int    // MPS bond cap when the request sets none
	label string // error prefix of the engine's failures
	err   error
	auto  bool // resolve against the circuit (aer's "automatic")
}

// width is a kernel-width rule: how many workers one run's kernels get.
type width int

const (
	oneWorker width = iota
	allCores        // GOMAXPROCS
	procs           // RunOptions.ProcsPerNode, else GOMAXPROCS
	nodeCores       // procs, capped at one node's usable cores
)

// The four local backends.
var (
	// aer is the Qiskit-Aer analog: a strong single-node simulator. Its
	// matrix_product_state engine is the star of the paper's TFIM results;
	// statevector kernels are capped at one node's cores (Aer's "chunking"
	// MPI mode does not scale past one node, which the paper calls out for
	// QAOA).
	aer = &record{
		caps: core.Capabilities{
			Backend:             "aer",
			Subbackends:         []string{"statevector", "matrix_product_state", "stabilizer", "automatic"},
			CPU:                 true,
			GPU:                 true,
			NativeMPI:           true,
			Gradients:           true,
			GradientSubs:        []string{"statevector", "automatic"},
			DeterministicSeeded: true,
			Notes:               "Strong single-node performance; MPI uses chunking and is capped at one node. GPU (CUDA) path simulated by chunked CPU kernels; HIP/ROCm requires a custom build. Adjoint gradients on the statevector engine; matrix_product_state runs the compiled fusion-aware MPS schedule (MaxBond/Cutoff via RunOptions).",
		},
		def: "automatic",
		subs: map[string]sub{
			"statevector":          {eng: denseSV, width: nodeCores},
			"stabilizer":           {eng: stabilizerEng, label: "aer/stabilizer"},
			"matrix_product_state": {eng: compiledMPS{}, width: nodeCores, bond: mps.DefaultMaxBond, label: "aer/mps"},
			"mps":                  {eng: compiledMPS{}, width: nodeCores, bond: mps.DefaultMaxBond, label: "aer/mps"},
			"automatic":            {auto: true},
		},
		gradWidth: nodeCores,
	}
	// nwqsim is the SV-Sim analog: a state-vector engine whose native MPI
	// distribution makes it the strong performer on large entangled
	// workloads (GHZ, HAM) and large HHL instances in the paper.
	nwqsim = &record{
		caps: core.Capabilities{
			Backend:             "nwqsim",
			Subbackends:         []string{"mpi", "openmp", "cpu", "amdgpu"},
			CPU:                 true,
			GPU:                 true,
			NativeMPI:           true,
			Gradients:           true,
			DeterministicSeeded: true,
			Notes:               "Fully integrated. AMDGPU sub-backend is simulated by the chunked CPU kernels (HIP+MPI lacked complete upstream support at development time). Adjoint gradients run node-local on the chunked kernels for every sub-backend.",
		},
		def: "mpi",
		subs: map[string]sub{
			"mpi":    {eng: distributedSV{}},
			"openmp": {eng: denseSV, width: procs},
			"amdgpu": {eng: denseSV, width: procs},
			"cpu":    {eng: denseSV, width: oneWorker},
		},
		lateErrors: true,
		gradWidth:  procs,
		ranks:      4,
	}
	// tnqvm is the TN-QVM analog: a wrapper over a tensor-network library
	// (ExaTN) that selects the network topology as a sub-backend. As in
	// Table 1 only exatn-mps runs; its bond cap is more conservative than
	// aer's, reflecting its general-network heritage.
	tnqvm = &record{
		caps: core.Capabilities{
			Backend:             "tnqvm",
			Subbackends:         []string{"exatn-mps", "ttn", "peps"},
			CPU:                 true,
			GPU:                 true,
			NativeMPI:           true,
			DeterministicSeeded: true,
			Notes:               "Tensor-network simulator; wrapper selects topology. Tested with exatn-mps. TTN currently blocked by .xasm vs .qasm; PEPS is architecturally supported.",
		},
		def: "exatn-mps",
		subs: map[string]sub{
			"exatn-mps": {eng: compiledMPS{}, width: allCores, bond: 48, label: "tnqvm/exatn-mps"},
			"ttn":       {err: fmt.Errorf("tnqvm: TTN %w (blocked by .xasm vs .qasm)", core.ErrPending)},
			"peps":      {err: fmt.Errorf("tnqvm: PEPS %w", core.ErrPlanned)},
		},
	}
	// qtensor is the QTensor/qtree analog: tree tensor-network contraction,
	// driven by QFw for full-state contraction, which makes it competitive
	// on shallow circuits but sharply slower past ~24 qubits. Its mpi
	// sub-backend distributes output-variable slices across ranks, as qtree
	// does via mpi4py.
	qtensor = &record{
		caps: core.Capabilities{
			Backend:             "qtensor",
			Subbackends:         []string{"numpy", "mpi", "cupy", "pytorch"},
			CPU:                 true,
			GPU:                 true,
			NativeMPI:           true,
			DeterministicSeeded: true,
			Notes:               "Tree TN (qtree). Designed for QAOA expectation estimation on sparse QUBOs, used by QFw for full-state contraction. Tested thoroughly with numpy; MPI via output-variable slicing.",
		},
		def: "numpy",
		subs: map[string]sub{
			"numpy":   {eng: tensorNet, label: "qtensor/numpy"},
			"mpi":     {eng: slicedTN},
			"cupy":    {err: fmt.Errorf("qtensor: cupy %w", core.ErrPlanned)},
			"pytorch": {err: fmt.Errorf("qtensor: pytorch %w", core.ErrPlanned)},
		},
		lateErrors: true,
		ranks:      2,
	}
)

// open is the record's core.Factory: one local executor with its own
// parse cache. Only records with gradients implement core.GradientExecutor,
// because the router and the fault injector discover gradient support by
// type assertion.
func (r *record) open(env *core.Env) (core.Executor, error) {
	l := &local{rec: r, env: env, cache: core.NewParseCache()}
	if r.caps.Gradients {
		return gradLocal{l}, nil
	}
	return l, nil
}

// local is the executor of every local backend: it parses through its
// cache, looks the sub-backend up in its record, and hands the request to
// that row's engine.
type local struct {
	rec   *record
	env   *core.Env
	cache *core.ParseCache
}

func (l *local) Name() string { return l.rec.caps.Backend }

func (l *local) Capabilities() core.Capabilities { return l.rec.caps }

func (l *local) Execute(spec core.CircuitSpec, opts core.RunOptions) (core.ExecResult, error) {
	c, s, err := l.resolve(spec, opts)
	if err != nil {
		return core.ExecResult{}, err
	}
	return s.eng.execute(l, s, spec, c, opts)
}

// ExecuteBatch implements core.BatchExecutor: every element rebinds into
// the cached parse of the ansatz, so a batch of K evaluations parses (and
// plans or compiles) once, not K times.
func (l *local) ExecuteBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	c, s, err := l.resolve(spec, opts)
	if err != nil {
		return nil, err
	}
	return s.eng.batch(l, s, spec, c, bindings, opts)
}

// resolve parses the spec through the cache, checks the observable against
// its width, and picks the sub-backend's row.
func (l *local) resolve(spec core.CircuitSpec, opts core.RunOptions) (*circuit.Circuit, sub, error) {
	c, err := parsed(l.cache, spec, opts)
	if err != nil {
		return nil, sub{}, err
	}
	s, ok := l.rec.subs[normalizeSub(opts.Subbackend, l.rec.def)]
	if !ok {
		s.err = fmt.Errorf("%s: unknown sub-backend %q", l.Name(), opts.Subbackend)
	}
	if s.auto {
		s = l.rec.subs[l.selectAutomatic(c)]
	}
	if s.err != nil {
		if !l.rec.lateErrors {
			return nil, sub{}, s.err
		}
		s.eng = refused
	}
	return c, s, nil
}

// workers applies a kernel-width rule to a request.
func (l *local) workers(w width, opts core.RunOptions) int {
	switch w {
	case oneWorker:
		return 1
	case allCores:
		return runtime.GOMAXPROCS(0)
	}
	n := opts.ProcsPerNode
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if w == nodeCores && len(l.env.Nodes) > 0 {
		n = min(n, l.env.Nodes[0].UsableCores())
	}
	return n
}

// selectAutomatic reproduces Aer's "automatic" method selection with the
// structural signals available to the IR: Clifford circuits go to the
// stabilizer engine; low-entanglement circuits go to MPS — strictly
// nearest-neighbour structure, or any circuit whose cost-model entanglement
// bound (cost.Extract) proves the default bond cap is lossless; everything
// else gets the dense state vector when it fits, MPS otherwise.
func (l *local) selectAutomatic(c *circuit.Circuit) string {
	if c.IsClifford() {
		return "stabilizer"
	}
	svFits := checkStateVectorBudget(c.NQubits, l.env.MemBudgetBytes) == nil
	if c.NQubits >= 12 {
		if c.InteractionDistance() <= 1 {
			return "matrix_product_state"
		}
		if f := cost.Extract(c, nil); f.EstPeakBond() <= mps.DefaultMaxBond {
			return "matrix_product_state"
		}
	}
	if svFits {
		return "statevector"
	}
	return "matrix_product_state"
}

// spawnRetry bounds the re-attempts at forming an MPI world when the DVM's
// core slots are transiently exhausted by concurrent process groups. The
// delays are sub-millisecond: slots free as soon as a neighbouring group
// finishes its run.
var spawnRetry = faults.Policy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond}

// spawn allocates an MPI process group on the DVM per the requested
// (#N, #P) placement and wraps it in a communicator world whose transfer
// costs follow the machine's interconnect model. The rank count is a power
// of two no larger than the 2^n amplitudes it splits.
func (l *local) spawn(nqubits int, opts core.RunOptions) (*prte.ProcGroup, *mpi.World, int, error) {
	nodes := min(max(opts.Nodes, 1), l.env.DVM.Nodes())
	ppn := opts.ProcsPerNode
	if ppn <= 0 {
		ppn = l.rec.ranks
	}
	total := 1
	for total*2 <= nodes*ppn && total*2 <= 1<<uint(nqubits) {
		total *= 2
	}
	useNodes := min(nodes, total)
	var pg *prte.ProcGroup
	err := spawnRetry.Do(func(int) error {
		var err error
		pg, err = l.env.DVM.Spawn(prte.Placement{Nodes: useNodes, ProcsPerNode: (total + useNodes - 1) / useNodes})
		return err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", l.Name(), err)
	}
	// The spawn may round ranks up past a power of two when total does not
	// divide evenly; the world holds exactly `total` ranks on the first
	// `total` slots.
	world := mpi.NewWorld(total, mpi.WithPlacement(pg.Places[:total], l.env.Machine.Net))
	return pg, world, total, nil
}

// contractible refuses full-state contractions past the open-qubit cap or
// the memory budget.
func (l *local) contractible(c *circuit.Circuit) error {
	if c.NQubits > tensornet.MaxOpenQubits {
		return core.Infeasible("%s: full-state contraction of %d qubits exceeds cap %d", l.Name(), c.NQubits, tensornet.MaxOpenQubits)
	}
	return checkStateVectorBudget(c.NQubits, l.env.MemBudgetBytes)
}
