// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation: workload sweeps across all integrated
// backends (Figs. 3a-3d), the QAOA runtime/fidelity sweep (Figs. 3e-3f),
// the DQAOA configuration study (Fig. 4), the iteration-level timeline
// (Fig. 5), and the capability/benchmark catalogs (Tables 1-2).
package bench

import "fmt"

// Placement is the (#N, #P) pair shown on the secondary x-axis of every
// figure: number of nodes and processes per node.
type Placement struct {
	Nodes int
	Procs int
}

func (p Placement) String() string { return fmt.Sprintf("(%d,%d)", p.Nodes, p.Procs) }

// WorkloadSpec is one row of Table 2.
type WorkloadSpec struct {
	Name     string
	Variant  string // "non-variational" or "variational"
	Sizes    []int  // paper sizes
	Quick    []int  // laptop-scale sizes used by `go test -bench`
	Describe string
}

// DQAOAConfig is one Fig. 4 configuration: a QUBO size with (subqsize, nsubq).
type DQAOAConfig struct {
	QUBOSize int
	SubQSize int
	NSubQ    int
}

func (c DQAOAConfig) String() string {
	return fmt.Sprintf("%d:(%d,%d)", c.QUBOSize, c.SubQSize, c.NSubQ)
}

// Catalog is the paper's Table 2: benchmarks and problem sizes.
var Catalog = []WorkloadSpec{
	{
		Name: "ghz", Variant: "non-variational",
		Sizes:    []int{4, 8, 12, 16, 20, 24, 28, 30, 32},
		Quick:    []int{4, 8, 12},
		Describe: "SupermarQ GHZ state preparation (long-range entanglement, shallow)",
	},
	{
		Name: "ham", Variant: "non-variational",
		Sizes:    []int{4, 8, 12, 16, 20, 24, 28, 30, 32},
		Quick:    []int{4, 8, 12},
		Describe: "SupermarQ Hamiltonian simulation (critical TFIM Trotter evolution)",
	},
	{
		Name: "tfim", Variant: "non-variational",
		Sizes:    []int{4, 8, 12, 16, 20, 24, 28, 30, 32},
		Quick:    []int{4, 8, 12},
		Describe: "Transverse-field Ising model time evolution (nearest-neighbour)",
	},
	{
		Name: "hhl", Variant: "non-variational",
		Sizes:    []int{5, 7, 9, 11, 13, 15, 17},
		Quick:    []int{5, 7},
		Describe: "Harrow-Hassidim-Lloyd linear solver (QPE + controlled rotations)",
	},
	{
		Name: "tfim-xl", Variant: "non-variational",
		Sizes:    []int{48, 64, 96, 128},
		Quick:    []int{48, 64},
		Describe: "Large-n TFIM evolution (MPS regime: dense state vectors are infeasible past ~30 qubits)",
	},
	{
		Name: "qaoa-ring", Variant: "non-variational",
		Sizes:    []int{32, 64},
		Quick:    []int{32},
		Describe: "Bound ring-QAOA layers (one long-range closing edge per layer exercises MPS swap routing)",
	},
	{
		Name: "qaoa", Variant: "variational",
		Sizes:    []int{4, 8, 10, 16, 20, 30},
		Quick:    []int{4, 8},
		Describe: "QAOA on random QUBOs (reports QUBO size)",
	},
	{
		Name: "dqaoa", Variant: "variational",
		Sizes:    []int{30, 40},
		Quick:    []int{16},
		Describe: "Distributed QAOA on metamaterial QUBOs with (subqsize, nsubq) splits",
	},
}

// DQAOAConfigs are the Fig. 4 / Table 2 DQAOA configurations.
var DQAOAConfigs = []DQAOAConfig{
	{QUBOSize: 30, SubQSize: 16, NSubQ: 2},
	{QUBOSize: 30, SubQSize: 12, NSubQ: 3},
	{QUBOSize: 30, SubQSize: 8, NSubQ: 4},
	{QUBOSize: 40, SubQSize: 16, NSubQ: 4},
	{QUBOSize: 40, SubQSize: 12, NSubQ: 4},
}

// DQAOAQuickConfigs are the laptop-scale equivalents used by `go test -bench`.
var DQAOAQuickConfigs = []DQAOAConfig{
	{QUBOSize: 16, SubQSize: 8, NSubQ: 2},
	{QUBOSize: 16, SubQSize: 6, NSubQ: 3},
	{QUBOSize: 20, SubQSize: 8, NSubQ: 3},
}

// AblationSpec is one design-choice ablation tracked by the bench
// trajectory alongside the paper's tables and figures.
type AblationSpec struct {
	Name     string
	Ks       []int // batch sizes swept (batch ablation)
	Sizes    []int // qubit counts swept (kernel ablations)
	Ps       []int // rank counts swept (distributed ablations)
	Describe string
}

// AblationCatalog lists the tracked ablations. batch-vs-sequential is the
// batched-execution pipeline's speedup entry: the same p=2 QAOA parameter
// sweep (identical seeds both paths) evaluated once through per-circuit
// submission and once through a single submit_batch RPC. gate-fusion is the
// fused statevector engine's entry: identical QAOA/TFIM/GHZ circuits run
// through the unfused per-gate kernels and through the fused program
// (merged 1q/2q blocks, hoisted diagonal layers, specialized kernels).
var AblationCatalog = []AblationSpec{
	{
		Name:     "batch-vs-sequential",
		Ks:       []int{1, 2, 4, 8, 16},
		Describe: "p=2 QAOA parameter sweep: K bound submissions vs one parametric batch (same seeds both paths)",
	},
	{
		Name:     "gate-fusion",
		Sizes:    []int{12, 14, 16},
		Describe: "QAOA/TFIM/GHZ statevector execution: per-gate kernels vs fused program (same circuits, same seeds)",
	},
	{
		Name:     "distributed-fusion",
		Ps:       []int{1, 2, 4, 8},
		Describe: "QAOA p=2 / TFIM over P ranks: fused stage engine (remap exchanges) vs single-rank fused, bytes counted by the mpi payload model",
	},
	{
		Name:     "gradient-methods",
		Sizes:    []int{10},
		Describe: "QAOA p=2 / VQLS hybrid loops: adjoint-gradient Adam vs parameter-shift Adam vs Nelder-Mead, run to the Nelder-Mead objective as the shared convergence target, circuit-equivalent evaluations counted per method",
	},
	{
		Name:     "mps-engine",
		Ks:       []int{8},
		Sizes:    []int{16, 24, 48},
		Describe: "TFIM / ring-QAOA batches of K=8 on the MPS engine: compiled+batched schedule vs the per-gate seed path, with the fused statevector engine at the crossover sizes",
	},
	{
		Name:     "engine-routing",
		Sizes:    []int{7, 10, 12, 16, 20, 32, 48},
		Describe: "Heterogeneous workload mix (GHZ/HamSim/HHL/QAOA/TFIM/ring-QAOA across the SV and MPS regimes): cost-model routed execution vs every pinned single-engine choice (same circuits, same seeds)",
	},
	{
		Name:     "blocked-kernel",
		Sizes:    []int{16, 18, 20, 22, 24, 26},
		Describe: "Deep QAOA/TFIM statevector execution on one core: cache-blocked stage engine (SoA tiles, SIMD kernels) vs per-op fused vs per-gate seed kernels (same circuits, same seeds, depth sweep)",
	},
	{
		Name:     "fault-injection",
		Ks:       []int{64},
		Describe: "64-element parametric sweep through a seeded fault injector at rising per-element transient-failure rates: retry + degrade-to-element recovery vs a single-attempt policy, plus a dead-primary fallback re-routing probe",
	},
	{
		Name:     "observability",
		Ks:       []int{1},
		Describe: "Deep-TFIM hot set with the result cache disabled (every request executes) from K serial clients: telemetry core on vs QFW_OBS=off in interleaved paired reps, measuring the span/metric instrumentation overhead at the request-latency floor",
	},
}

// PlacementFor reproduces the paper's (#N, #P) schedule: placements grow
// with problem size, crossing from one LLC domain to several and from one
// node to two (Fig. 3's secondary axes).
func PlacementFor(n int) Placement {
	switch {
	case n <= 16:
		return Placement{Nodes: 1, Procs: 4}
	case n <= 20:
		return Placement{Nodes: 1, Procs: 8}
	case n <= 24:
		return Placement{Nodes: 2, Procs: 8}
	case n <= 30:
		return Placement{Nodes: 2, Procs: 8}
	default:
		return Placement{Nodes: 2, Procs: 16}
	}
}

// BackendSel names a (backend, sub-backend) series in a figure.
type BackendSel struct {
	Backend    string
	Subbackend string
}

// Label renders the figure-legend name of the series.
func (b BackendSel) Label() string {
	switch {
	case b.Backend == "nwqsim":
		return "NWQ-Sim"
	case b.Backend == "aer" && b.Subbackend == "statevector":
		return "Qiskit-Aer (Statevector)"
	case b.Backend == "aer" && b.Subbackend == "matrix_product_state":
		return "Qiskit-Aer (MPS)"
	case b.Backend == "aer" && b.Subbackend == "automatic":
		return "Qiskit-Aer (Automatic)"
	case b.Backend == "qtensor":
		return "QTensor (NumPy)"
	case b.Backend == "tnqvm":
		return "TNQVM (ExaTN-MPS)"
	case b.Backend == "ionq":
		return "IonQ (Simulator)"
	}
	return b.Backend + "/" + b.Subbackend
}

// Figure3Backends is the full legend of Figs. 3a-3d.
var Figure3Backends = []BackendSel{
	{Backend: "nwqsim", Subbackend: "mpi"},
	{Backend: "aer", Subbackend: "statevector"},
	{Backend: "aer", Subbackend: "matrix_product_state"},
	{Backend: "aer", Subbackend: "automatic"},
	{Backend: "qtensor", Subbackend: "numpy"},
	{Backend: "tnqvm", Subbackend: "exatn-mps"},
	{Backend: "ionq", Subbackend: "simulator"},
}

// QAOABackends is the reduced backend set used for the variational sweep.
var QAOABackends = []BackendSel{
	{Backend: "nwqsim", Subbackend: "openmp"},
	{Backend: "aer", Subbackend: "statevector"},
	{Backend: "aer", Subbackend: "matrix_product_state"},
}
