// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation: workload sweeps across all integrated
// backends (Figs. 3a-3d), the QAOA runtime/fidelity sweep (Figs. 3e-3f),
// the DQAOA configuration study (Fig. 4), the iteration-level timeline
// (Fig. 5), and the capability/benchmark catalogs (Tables 1-2), plus the
// three engine ablations whose records calibrate the cost model.
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

// ExperimentSpec is one row of the experiment table qfwbench runs from.
type ExperimentSpec struct {
	ID       string
	Describe string // the question the experiment answers
	Sizes    []int  // full-size qubit sweep, for experiments that own one
	// Artifact is the JSON record a -full run writes (empty: none). Every
	// committed record was taken at full size, so a quick run writes
	// nothing and cannot overwrite one.
	Artifact string
	Run      func(h *Harness) (*Experiment, error)
}

// Experiments is the experiment table, in run order: the paper's tables and
// figures, then the three engine studies the end-to-end benchmark cannot
// isolate, whose records are also fit-cost's inputs. It is filled in init
// because the table2 row lists the table itself.
var Experiments []ExperimentSpec

func init() {
	fig := func(id, workload string) func(*Harness) (*Experiment, error) {
		return func(h *Harness) (*Experiment, error) { return h.RunWorkloadFigure(id, workload) }
	}
	Experiments = []ExperimentSpec{
		{ID: "table1", Describe: "which backends exist, and where the router sends the route mix",
			Run: (*Harness).RunCapabilityTable},
		{ID: "table2", Describe: "the benchmarks, their sizes and the DQAOA configurations",
			Run: func(h *Harness) (*Experiment, error) { return h.RunBenchmarkCatalog(), nil }},
		{ID: "fig3a", Describe: "GHZ runtime vs size on every backend", Run: fig("fig3a", "ghz")},
		{ID: "fig3b", Describe: "Hamiltonian-simulation runtime vs size on every backend", Run: fig("fig3b", "ham")},
		{ID: "fig3c", Describe: "TFIM runtime vs size on every backend", Run: fig("fig3c", "tfim")},
		{ID: "fig3c-strong", Describe: "do more processes speed up a fixed-size TFIM (state vector yes, MPS no)",
			Run: func(h *Harness) (*Experiment, error) {
				if h.Quick {
					return h.RunStrongScaling(12, []int{1, 2, 4, 8})
				}
				// TFIM-28 needs 4 GiB of amplitudes; 22 fits the default budget.
				return h.RunStrongScaling(22, []int{1, 2, 4, 8, 16})
			}},
		{ID: "fig3d", Describe: "HHL runtime vs size on every backend", Run: fig("fig3d", "hhl")},
		{ID: "fig3e", Describe: "QAOA runtime vs QUBO size",
			Run: func(h *Harness) (*Experiment, error) { return h.qaoaFigure(0) }},
		{ID: "fig3f", Describe: "QAOA solution fidelity vs QUBO size (paper: >= 95%)",
			Run: func(h *Harness) (*Experiment, error) { return h.qaoaFigure(1) }},
		{ID: "fig4", Describe: "DQAOA total time per configuration, local MPI vs cloud",
			Run: (*Harness).RunDQAOAFigure},
		{ID: "fig5", Describe: "how many sub-QAOAs overlap in one DQAOA run, local vs cloud",
			Run: func(h *Harness) (*Experiment, error) {
				cfg := DQAOAConfig{QUBOSize: 16, SubQSize: 6, NSubQ: 4}
				if !h.Quick {
					cfg = DQAOAConfig{QUBOSize: 40, SubQSize: 12, NSubQ: 4}
				}
				exp, _, err := h.RunTimelineFigure(cfg)
				return exp, err
			}},
		{ID: "ablation-kernel", Sizes: kernelSizes, Artifact: "BENCH_kernel.json",
			Describe: "one core, deep QAOA/TFIM: cache-blocked stages vs per-op fused vs per-gate kernels",
			Run:      (*Harness).RunKernelAblation},
		{ID: "ablation-mps", Sizes: mpsSizes, Artifact: "BENCH_mps.json",
			Describe: "K=8 TFIM / ring-QAOA batches: compiled+batched MPS vs per-gate MPS, dense state vector to the crossover",
			Run:      (*Harness).RunMPSAblation},
		{ID: "ablation-route", Artifact: "BENCH_route.json",
			Describe: "the route mix (GHZ-12 to TFIM-48) routed by the cost model vs pinned to each engine",
			Run:      (*Harness).RunRouteAblation},
	}
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
