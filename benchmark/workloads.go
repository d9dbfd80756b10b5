//go:build linux

package main

import (
	"fmt"
	"math/rand"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/workloads"
)

// class is one kind of request a workload issues. One op of a workload is
// one round over its classes, so every op does the same work and the
// latency distribution has one mode.
type class struct {
	name    string
	circ    *circuit.Circuit // bound circuit, or the symbolic ansatz when k > 0
	spec    core.CircuitSpec // wire form of circ
	shots   int              // 0 = analytic expectation query (obs set)
	maxBond int
	obs     *core.Observable
	k       int // bindings per request; 0 = one bound run

	// sibling is the n=16 circuit from the same builder that stands in for
	// circ in the oracle check when circ is beyond a dense state vector.
	sibling *circuit.Circuit
}

func (c *class) analytic() bool { return c.shots == 0 && c.obs != nil }

// runOpts are the options of one request of the class. sub is the
// workload's sub-backend: Frontend fills it in itself, serve.Client and the
// in-process ladder rungs need it on the options.
func (c *class) runOpts(seed int64, sub string) core.RunOptions {
	return core.RunOptions{Shots: c.shots, Seed: seed, MaxBond: c.maxBond, Observable: c.obs, Subbackend: sub}
}

// workload is one row of BENCHMARK.json's workload list. rate only sizes the
// fixed op count (rate × seconds), it is not a target: it is about four
// fifths of the ops per second the workload did on a quiet machine at the
// commit that defined the benchmark (2 cores), so that the timed phase still
// ends near the asked-for length when the host runs a quarter slower, as it
// often does. serve_cold keeps its full rate: it has to pass the result
// cache's 4096 entries.
type workload struct {
	name    string
	backend string
	sub     string
	serve   bool // through serve.<backend> with serve.Client, else qpm.<backend> with Frontend
	clients int  // closed-loop client goroutines, one connection each
	rate    float64
	hotSet  int  // > 0: inputs repeat with this period, so requests hit the result cache
	solve   bool // one op is one qaoa.Solve; the classes describe its two request kinds for the ladder
	build   func(rng *rand.Rand) []class
}

const (
	qaoaDepth    = 2
	sweepK       = 16  // bindings per batch_sweep batch
	solveEvals   = 120 // var_qaoa optimizer budget, spent exactly
	solvePop     = 4   // qaoa.Options.Population default: bindings per gradient request
	solveShots   = 512 // qaoa.Options.Shots default; the final sample uses twice this
	solveWidth   = 10  // var_qaoa problem size
	mpsBond      = 32
	tfimField    = 0.5
	tfimTime     = 1.0
	siblingWidth = 16
)

func bound(name string, c *circuit.Circuit, shots int) class {
	return class{name: name, circ: c, shots: shots}
}

// randomQUBO is the seed-derived dense problem instance behind every QAOA
// ansatz: full density, so the gate count does not vary with the seed.
func randomQUBO(n int, rng *rand.Rand) *qubo.QUBO { return qubo.Random(n, 1, 1, rng) }

// qaoaClass is K bindings of the depth-2 QAOA ansatz of q per request,
// carrying q's cost operator as the observable.
func qaoaClass(name string, q *qubo.QUBO, k, shots int) class {
	h, _ := q.CostHamiltonian()
	return class{name: name, circ: qaoa.BuildAnsatz(h, qaoaDepth), shots: shots, obs: qaoa.ObservableFromQUBO(q), k: k}
}

func serveClasses(rng *rand.Rand) []class {
	return []class{
		bound("tfim-12", workloads.TFIM(12, 4, tfimField, tfimTime), 256),
		qaoaClass("qaoa-10-expval-x2", randomQUBO(10, rng), 2, 0),
	}
}

var allWorkloads = []workload{
	{
		name: "sv_table2", backend: "nwqsim", sub: "openmp", clients: 1, rate: 16,
		build: func(*rand.Rand) []class {
			return []class{
				bound("ghz-18", workloads.GHZ(18), 1024),
				bound("hamsim-18", workloads.HamSim(18, 4), 1024),
				bound("tfim-18", workloads.TFIM(18, 8, tfimField, tfimTime), 1024),
				bound("hhl-11", workloads.HHL(workloads.HHLSize(11)), 1024),
			}
		},
	},
	{
		name: "mps_ising", backend: "aer", sub: "matrix_product_state", clients: 1, rate: 10,
		build: func(*rand.Rand) []class {
			tfim := bound("tfim-64", workloads.TFIM(64, 4, tfimField, tfimTime), 1024)
			tfim.sibling = workloads.TFIM(siblingWidth, 4, tfimField, tfimTime)
			ring := bound("qaoa-ring-32", workloads.RingQAOA(32, 2), 1024)
			ring.sibling = workloads.RingQAOA(siblingWidth, 2)
			tfim.maxBond, ring.maxBond = mpsBond, mpsBond
			return []class{tfim, ring}
		},
	},
	{
		name: "rpc_small", backend: "aer", sub: "statevector", clients: 2, rate: 400,
		build: func(*rand.Rand) []class {
			return []class{
				bound("ghz-8", workloads.GHZ(8), 256),
				bound("hamsim-8", workloads.HamSim(8, 4), 256),
				bound("hhl-7", workloads.HHL(workloads.HHLSize(7)), 256),
				bound("tfim-10", workloads.TFIM(10, 4, tfimField, tfimTime), 256),
			}
		},
	},
	{
		name: "batch_sweep", backend: "aer", sub: "statevector", clients: 1, rate: 11,
		build: func(rng *rand.Rand) []class {
			q := randomQUBO(12, rng)
			sampled := qaoaClass("qaoa-12-sampled-x16", q, sweepK, 1024)
			sampled.obs = nil // counts only
			return []class{qaoaClass("qaoa-12-expval-x16", q, sweepK, 0), sampled}
		},
	},
	{
		name: "var_qaoa", backend: "nwqsim", sub: "openmp", clients: 1, rate: 10.5, solve: true,
		build: func(rng *rand.Rand) []class {
			q := randomQUBO(solveWidth, rng)
			grad := qaoaClass("qaoa-10-grad-x4", q, solvePop, solveShots)
			h, _ := q.CostHamiltonian()
			final := bound("qaoa-10-final", qaoa.BuildAnsatz(h, qaoaDepth).Bind(qaoa.BindParams([]float64{0.3, 0.5, 0.7, 0.2})), 2*solveShots)
			return []class{grad, final}
		},
	},
	{
		name: "route_mix", backend: "auto", clients: 1, rate: 12.5,
		build: func(*rand.Rand) []class {
			ring := bound("qaoa-ring-32", workloads.RingQAOA(32, 1), 1024)
			ring.sibling = workloads.RingQAOA(siblingWidth, 1)
			return []class{
				bound("ghz-12", workloads.GHZ(12), 1024),
				bound("hamsim-12", workloads.HamSim(12, 4), 1024),
				bound("hhl-7", workloads.HHL(workloads.HHLSize(7)), 1024),
				bound("tfim-16", workloads.TFIM(16, 8, tfimField, tfimTime), 1024),
				bound("tfim-20", workloads.TFIM(20, 8, tfimField, tfimTime), 1024),
				ring,
			}
		},
	},
	{name: "serve_hot", backend: "aer", serve: true, clients: 2, rate: 440, hotSet: 32, build: serveClasses},
	{name: "serve_cold", backend: "aer", serve: true, clients: 2, rate: 170, build: serveClasses},
}

func findWorkload(name string) (*workload, error) {
	for i := range allWorkloads {
		if allWorkloads[i].name == name {
			return &allWorkloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opInput is everything one op sends that is not fixed by its workload.
type opInput struct {
	Seeds    []int64           `json:"seeds"`              // request seed per class
	Bindings [][]core.Bindings `json:"bindings,omitempty"` // per class, k each
	QUBO     [][]float64       `json:"qubo,omitempty"`     // var_qaoa: the problem of this solve
	Optimum  float64           `json:"optimum,omitempty"`  // var_qaoa: its brute-force minimum energy
}

// inputs is the generated input set of one run: a pure function of
// (workload, seed, op count).
type inputs struct {
	Classes []class   `json:"-"`
	Ops     []opInput `json:"ops"`
	// CheckSeed seeds the set-up verification requests (oracle observable,
	// repeat-determinism probe).
	CheckSeed int64 `json:"check_seed"`
}

func randomBinding(rng *rand.Rand) core.Bindings {
	x := make([]float64, 2*qaoaDepth)
	for i := range x {
		x[i] = 0.05 + 1.5*rng.Float64()
	}
	return qaoa.BindParams(x)
}

// generate derives the classes and per-op inputs from the seed. With a hot
// set, op i repeats the inputs of op i mod hotSet; otherwise every request
// seed and binding is distinct.
func (w *workload) generate(seed int64, nOps int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Classes: w.build(rng), CheckSeed: 1 + rng.Int63n(1<<40)}
	for i := range in.Classes {
		c := &in.Classes[i]
		var err error
		if c.k > 0 {
			c.spec, err = core.SpecFromParametric(c.circ)
		} else {
			c.spec, err = core.SpecFromCircuit(c.circ)
		}
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", w.name, c.name, err)
		}
	}
	distinct := nOps
	if w.hotSet > 0 && w.hotSet < nOps {
		distinct = w.hotSet
	}
	base := 1 + rng.Int63n(1<<40)
	in.Ops = make([]opInput, nOps)
	for i := 0; i < distinct; i++ {
		op := opInput{Seeds: make([]int64, len(in.Classes))}
		if w.solve {
			q := randomQUBO(solveWidth, rng)
			op.QUBO, op.Optimum = q.Q, optimum(q)
		}
		for ci, c := range in.Classes {
			op.Seeds[ci] = base + int64(i*len(in.Classes)+ci)
			if c.k > 0 && !w.solve {
				if op.Bindings == nil {
					op.Bindings = make([][]core.Bindings, len(in.Classes))
				}
				for b := 0; b < c.k; b++ {
					op.Bindings[ci] = append(op.Bindings[ci], randomBinding(rng))
				}
			}
		}
		in.Ops[i] = op
	}
	for i := distinct; i < nOps; i++ {
		in.Ops[i] = in.Ops[i%distinct]
	}
	return in, nil
}

// opCount is the fixed number of timed ops for a run of the given length.
func (w *workload) opCount(seconds int) int {
	n := int(w.rate*float64(seconds) + 0.5)
	if n < minOps {
		n = minOps
	}
	return n
}

// minOps keeps at least ten samples beyond the 90th percentile.
const minOps = 100
