// Package qfw is the public API of the Quantum Framework reproduction: an
// HPC-aware, backend-agnostic orchestration layer for hybrid quantum-HPC
// workloads (Chundury et al., "Scaling Hybrid Quantum-HPC Applications with
// the Quantum Framework", SC 2025).
//
// A typical application launches a session (which models the paper's SLURM
// heterogeneous job: hetgroup-0 for the application, hetgroup-1 for QFw
// services), selects a backend by properties, and runs circuits through the
// uniform frontend — swapping simulators or the cloud backend without
// changing application code:
//
//	session, err := qfw.Launch(qfw.Config{})
//	defer session.Teardown()
//	backend, err := session.Frontend(qfw.Properties{
//	    Backend:    "nwqsim",
//	    Subbackend: "MPI",
//	})
//	res, err := backend.Run(qfw.GHZ(8), qfw.RunOptions{Shots: 1024})
//
// Five backends are registered: "nwqsim" (distributed state vector),
// "aer" (statevector / matrix_product_state / stabilizer / automatic),
// "tnqvm" (exatn-mps), "qtensor" (tree tensor network), and "ionq"
// (simulated cloud REST service).
//
// The synchronous calls — Run, RunBatch, RunGradient — cost one RPC each:
// the QPM executes, replies with the result and reaps the task itself, so
// nothing accumulates in the daemon however many circuits an application
// runs. The asynchronous handles (RunAsync, RunBatchAsync) split that into
// submit and wait so work can overlap; such a handle owns its task until
// the application calls Frontend.Delete with its id.
//
// # Batched parametric execution
//
// Variational workloads evaluate one ansatz under many parameter bindings
// per optimizer iteration. The batch API ships the symbolic circuit once
// and the bindings as a list, costing a single exec_batch RPC (and a
// single QASM parse backend-side) for the whole candidate set:
//
//	ansatz := qfw.NewCircuit(2)
//	ansatz.RY(0, qfw.Sym("theta", 1)).CX(0, 1).MeasureAll()
//	results, err := backend.RunBatch(ansatz, []qfw.Bindings{
//	    {"theta": 0.1}, {"theta": 0.7}, {"theta": 1.3},
//	}, qfw.RunOptions{Shots: 512})
//
// Results come back ordered; element i uses the deterministic seed a serial
// loop would have used. RunBatchAsync returns a PendingBatch handle for the
// non-blocking variant. SolveQAOA, SolveDQAOA, and SolveVQLS route their
// per-iteration candidate sets through this path automatically; the
// end-to-end benchmark's batch_sweep workload measures it over a real DEFw
// connection.
package qfw

import (
	"math/rand"

	_ "qfw/internal/backends" // register the five backend QPMs
	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/core"
	"qfw/internal/dqaoa"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/trace"
	"qfw/internal/vqls"
	"qfw/internal/workloads"
)

// Re-exported orchestration types.
type (
	// Config describes a full-stack deployment (machine model, het group
	// sizes, QRC worker counts, transport, memory budget, cloud knobs).
	Config = core.Config
	// Session is a running QFw deployment.
	Session = core.Session
	// Properties selects a backend and sub-backend.
	Properties = core.Properties
	// Frontend is the application-side QFwBackend handle.
	Frontend = core.Frontend
	// RunOptions configure one execution request.
	RunOptions = core.RunOptions
	// Result is QFw's unified result format.
	Result = core.Result
	// Capabilities is a backend's Table-1 row.
	Capabilities = core.Capabilities
	// Bindings assigns values to a parametric circuit's symbols — one
	// Bindings per batch element.
	Bindings = core.Bindings
	// PendingBatch is an in-flight asynchronous batch execution.
	PendingBatch = core.PendingBatch
	// GradResult is one analytic gradient evaluation: the exact expectation
	// value and its partial derivatives over the circuit's sorted parameter
	// names (see Frontend.RunGradient).
	GradResult = core.GradResult
	// Observable is an operator attached to a run or gradient request:
	// H = Σ Fields Z_i + Σ Couplings V Z_i Z_j + Σ Paulis Coeff·P.
	Observable = core.Observable
	// Coupling is one quadratic term of a diagonal observable.
	Coupling = core.Coupling
	// PauliTerm is one general Pauli-string observable term.
	PauliTerm = core.PauliTerm
)

// Re-exported circuit IR types.
type (
	// Circuit is the gate-level IR shared by all frontends and backends.
	Circuit = circuit.Circuit
	// Param is a bound or symbolic gate angle.
	Param = circuit.Param
	// Gate is one circuit operation.
	Gate = circuit.Gate
)

// Re-exported problem/algorithm types.
type (
	// QUBO is a quadratic unconstrained binary optimization problem.
	QUBO = qubo.QUBO
	// QAOAOptions tune a QAOA solve.
	QAOAOptions = qaoa.Options
	// QAOAResult summarizes a QAOA solve.
	QAOAResult = qaoa.Result
	// DQAOAConfig tunes a distributed QAOA solve.
	DQAOAConfig = dqaoa.Config
	// DQAOAResult summarizes a distributed QAOA solve.
	DQAOAResult = dqaoa.Result
	// Recorder collects timing spans (Fig. 5 timelines).
	Recorder = trace.Recorder
	// Machine is the cluster model sessions deploy onto.
	Machine = cluster.Machine
)

// Launch boots the full stack: SLURM heterogeneous job, PRTE DVM, and one
// QPM service per registered backend. Teardown the session when done.
func Launch(cfg Config) (*Session, error) { return core.Launch(cfg) }

// Frontier returns the paper's evaluation platform model with the given
// node count (64-core EPYC, 8 LLC domains, 512 GiB, 8 GCDs, Slingshot).
func Frontier(nodes int) *Machine { return cluster.Frontier(nodes) }

// Laptop returns a small machine model for local experimentation.
func Laptop(nodes int) *Machine { return cluster.Laptop(nodes) }

// RegisteredBackends lists the available backend names.
func RegisteredBackends() []string { return core.RegisteredBackends() }

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit { return circuit.New(n) }

// Bound returns a concrete gate angle.
func Bound(v float64) Param { return circuit.Bound(v) }

// Sym returns the symbolic angle coeff*θ(name) for variational circuits.
func Sym(name string, coeff float64) Param { return circuit.Sym(name, coeff) }

// ParseQASM parses OpenQASM 2.0 into the circuit IR.
func ParseQASM(src string) (*Circuit, error) { return circuit.ParseQASM(src) }

// Workload builders (the paper's Table 2).

// GHZ returns the n-qubit GHZ preparation benchmark.
func GHZ(n int) *Circuit { return workloads.GHZ(n) }

// HamSim returns the SupermarQ Hamiltonian-simulation benchmark.
func HamSim(n, steps int) *Circuit { return workloads.HamSim(n, steps) }

// TFIM returns the transverse-field Ising evolution benchmark.
func TFIM(n, steps int, hx, t float64) *Circuit { return workloads.TFIM(n, steps, hx, t) }

// HHL returns the linear-solver benchmark with the paper's total qubit
// count (5, 7, ..., 17).
func HHL(totalQubits int) *Circuit { return workloads.HHL(workloads.HHLSize(totalQubits)) }

// Problem generators.

// RandomQUBO generates a dense random QUBO instance.
func RandomQUBO(n int, density, scale float64, seed int64) *QUBO {
	return qubo.Random(n, density, scale, rand.New(rand.NewSource(seed)))
}

// MetamaterialQUBO generates the structured instance class of the paper's
// DQAOA metamaterial-optimization application.
func MetamaterialQUBO(n int, seed int64) *QUBO {
	return qubo.Metamaterial(n, rand.New(rand.NewSource(seed)))
}

// SolveQAOA runs the hybrid QAOA loop against any QFw frontend.
func SolveQAOA(q *QUBO, backend *Frontend, opts QAOAOptions) (*QAOAResult, error) {
	return qaoa.Solve(q, backend, opts)
}

// SolveDQAOA runs the distributed QAOA decompose/solve/aggregate loop.
func SolveDQAOA(q *QUBO, backend *Frontend, cfg DQAOAConfig) (*DQAOAResult, error) {
	return dqaoa.Solve(q, backend, cfg)
}

// NewRecorder returns a fresh timing recorder for Fig.-5-style timelines.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// VQLS types (the variational linear solver the paper lists among QFw
// applications).
type (
	// VQLSProblem is a linear system A|x> ∝ |b> with A as a Pauli sum.
	VQLSProblem = vqls.Problem
	// VQLSOptions tune a VQLS solve.
	VQLSOptions = vqls.Options
	// VQLSResult summarizes a VQLS solve.
	VQLSResult = vqls.Result
)

// IsingVQLS builds a well-conditioned Ising-type linear system instance.
func IsingVQLS(n int, j, hx, eta float64) *VQLSProblem { return vqls.IsingA(n, j, hx, eta) }

// SolveVQLS trains the variational linear solver against a QFw backend
// (local simulator backends only: the cost uses general Pauli observables).
func SolveVQLS(p *VQLSProblem, backend *Frontend, opts VQLSOptions) (*VQLSResult, error) {
	return vqls.Solve(p, backend, opts)
}
