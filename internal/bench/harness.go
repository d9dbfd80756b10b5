package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/dqaoa"
	"qfw/internal/mps"
	"qfw/internal/optimize"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/statevec"
	"qfw/internal/trace"
	"qfw/internal/workloads"
)

// Point is one measurement of a series.
type Point struct {
	X          int     `json:"x"` // qubits, QUBO size, or rank count
	Placement  string  `json:"placement"`
	RuntimeMS  float64 `json:"runtime_ms"`
	StdMS      float64 `json:"std_ms"`
	Fidelity   float64 `json:"fidelity,omitempty"`
	Infeasible bool    `json:"infeasible,omitempty"`
	Err        string  `json:"err,omitempty"`

	// PredictedMS is the cost model's per-element runtime prediction for
	// the chosen route (routing ablation only): the predicted-vs-actual
	// record of the calibration.
	PredictedMS float64 `json:"predicted_ms,omitempty"`
}

// Series is one backend line of a figure.
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// Experiment is a reproduced table or figure.
type Experiment struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Series []Series `json:"series"`
	Notes  string   `json:"notes,omitempty"`
	Text   string   `json:"text,omitempty"` // pre-rendered body (timelines, tables)
}

// Harness drives experiments against a running QFw session.
type Harness struct {
	Session *core.Session
	Repeats int // paper: 3
	Shots   int
	Seed    int64
	Quick   bool // laptop-scale size lists

	// SizeOverride, when non-empty, replaces the workload size list
	// (cmd/qfwbench -sizes) for partial paper-scale sweeps.
	SizeOverride []int

	qaoaFig []*Experiment // fig3e and fig3f, which one sweep produces
}

// NewHarness wraps a session with the paper's defaults.
func NewHarness(s *core.Session) *Harness {
	return &Harness{Session: s, Repeats: 3, Shots: 256, Seed: 1}
}

func (h *Harness) sizes(spec WorkloadSpec) []int {
	if len(h.SizeOverride) > 0 {
		return h.SizeOverride
	}
	if h.Quick {
		return spec.Quick
	}
	return spec.Sizes
}

func (h *Harness) specFor(name string) WorkloadSpec {
	for _, spec := range Catalog {
		if spec.Name == name {
			return spec
		}
	}
	panic("bench: unknown workload " + name)
}

// timedRun executes run `repeats` times and returns mean/std in ms.
func (h *Harness) timedRun(run func() error) (mean, std float64, err error) {
	var samples []float64
	for r := 0; r < h.Repeats; r++ {
		start := time.Now()
		if err := run(); err != nil {
			return 0, 0, err
		}
		samples = append(samples, float64(time.Since(start))/float64(time.Millisecond))
	}
	mean, std = meanStd(samples)
	return mean, std, nil
}

// meanStd returns the mean and population standard deviation of samples.
func meanStd(samples []float64) (mean, std float64) {
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		std += (s - mean) * (s - mean)
	}
	return mean, math.Sqrt(std / float64(len(samples)))
}

// RunWorkloadFigure reproduces one of Figs. 3a-3d: runtime vs size for a
// non-variational workload across the full backend legend.
func (h *Harness) RunWorkloadFigure(figID, workload string) (*Experiment, error) {
	spec := h.specFor(workload)
	exp := &Experiment{
		ID:    figID,
		Title: fmt.Sprintf("%s runtime scaling (%s)", workload, spec.Describe),
		Notes: "Weak-scaling style sweep: size and (#N,#P) grow together, as in the paper.",
	}
	for _, sel := range Figure3Backends {
		front, err := h.Session.Frontend(core.Properties{Backend: sel.Backend, Subbackend: sel.Subbackend})
		if err != nil {
			return nil, err
		}
		series := Series{Label: sel.Label()}
		for _, n := range h.sizes(spec) {
			pl := PlacementFor(n)
			circ, err := workloads.ByName(workload, n)
			if err != nil {
				return nil, err
			}
			opts := core.RunOptions{
				Shots: h.Shots, Seed: h.Seed,
				Nodes: pl.Nodes, ProcsPerNode: pl.Procs,
			}
			mean, std, runErr := h.timedRun(func() error {
				_, err := front.Run(circ, opts)
				return err
			})
			pt := Point{X: n, Placement: pl.String(), RuntimeMS: mean, StdMS: std}
			if runErr != nil {
				pt.Infeasible = core.IsInfeasible(runErr)
				pt.Err = runErr.Error()
				pt.RuntimeMS, pt.StdMS = 0, 0
			}
			series.Points = append(series.Points, pt)
		}
		exp.Series = append(exp.Series, series)
	}
	return exp, nil
}

// RunStrongScaling reproduces the Fig. 3c inset: a fixed-size TFIM across
// growing process counts, contrasting state-vector engines (which improve)
// with MPS (which does not).
func (h *Harness) RunStrongScaling(n int, procCounts []int) (*Experiment, error) {
	if len(procCounts) == 0 {
		procCounts = []int{1, 2, 4, 8}
	}
	exp := &Experiment{
		ID:    "fig3c-strong",
		Title: fmt.Sprintf("TFIM-%d approximate strong scaling", n),
		Notes: "State-vector simulators benefit from added processes; MPS-based approaches do not scale as effectively (paper Sec. 6).",
	}
	sels := []BackendSel{
		{Backend: "nwqsim", Subbackend: "mpi"},
		{Backend: "aer", Subbackend: "statevector"},
		{Backend: "aer", Subbackend: "matrix_product_state"},
	}
	circ := workloads.TFIM(n, 4, 0.5, 1.0)
	for _, sel := range sels {
		front, err := h.Session.Frontend(core.Properties{Backend: sel.Backend, Subbackend: sel.Subbackend})
		if err != nil {
			return nil, err
		}
		series := Series{Label: sel.Label()}
		for _, p := range procCounts {
			nodes := 1
			if p > 8 {
				nodes = 2
			}
			opts := core.RunOptions{Shots: h.Shots, Seed: h.Seed, Nodes: nodes, ProcsPerNode: p / nodes}
			mean, std, runErr := h.timedRun(func() error {
				_, err := front.Run(circ, opts)
				return err
			})
			pt := Point{X: p, Placement: fmt.Sprintf("(%d,%d)", nodes, p/nodes), RuntimeMS: mean, StdMS: std}
			if runErr != nil {
				pt.Infeasible = core.IsInfeasible(runErr)
				pt.Err = runErr.Error()
			}
			series.Points = append(series.Points, pt)
		}
		exp.Series = append(exp.Series, series)
	}
	return exp, nil
}

// RunQAOAFigure reproduces Figs. 3e (runtime) and 3f (fidelity): QAOA over
// growing QUBO sizes. Infeasible sizes (over the memory budget) appear as
// the paper's red-X missing points.
func (h *Harness) RunQAOAFigure() (runtimeExp, fidelityExp *Experiment, err error) {
	spec := h.specFor("qaoa")
	runtimeExp = &Experiment{ID: "fig3e", Title: "QAOA runtime vs QUBO size"}
	fidelityExp = &Experiment{
		ID: "fig3f", Title: "QAOA solution fidelity vs QUBO size",
		Notes: "Fidelity vs the classical reference solver (exact/simulated annealing, the D-Wave stand-in); the paper reports >=95% throughout.",
	}
	for _, sel := range QAOABackends {
		front, ferr := h.Session.Frontend(core.Properties{Backend: sel.Backend, Subbackend: sel.Subbackend})
		if ferr != nil {
			return nil, nil, ferr
		}
		rt := Series{Label: sel.Label()}
		fid := Series{Label: sel.Label()}
		for _, n := range h.sizes(spec) {
			pl := PlacementFor(n)
			rng := rand.New(rand.NewSource(h.Seed + int64(n)))
			q := qubo.Random(n, 0.5, 1.0, rng)
			start := time.Now()
			res, qerr := qaoa.Solve(q, front, qaoa.Options{
				P: 1, Shots: h.Shots, MaxEvals: 30, Seed: h.Seed + int64(n),
				Run: core.RunOptions{Nodes: pl.Nodes, ProcsPerNode: pl.Procs},
			})
			elapsed := float64(time.Since(start)) / float64(time.Millisecond)
			rpt := Point{X: n, Placement: pl.String(), RuntimeMS: elapsed}
			fpt := Point{X: n, Placement: pl.String()}
			if qerr != nil {
				rpt.Infeasible = core.IsInfeasible(qerr)
				rpt.Err = qerr.Error()
				rpt.RuntimeMS = 0
				fpt.Infeasible = rpt.Infeasible
				fpt.Err = rpt.Err
			} else {
				_, best := optimize.Reference(q, rng)
				worst := -best
				if worst <= best {
					worst = best + 1
				}
				fpt.Fidelity = 100 * optimize.SolutionQuality(res.Energy, best, worst)
			}
			rt.Points = append(rt.Points, rpt)
			fid.Points = append(fid.Points, fpt)
		}
		runtimeExp.Series = append(runtimeExp.Series, rt)
		fidelityExp.Series = append(fidelityExp.Series, fid)
	}
	return runtimeExp, fidelityExp, nil
}

// qaoaFigure returns fig3e (i=0) or fig3f (i=1), running the shared QAOA
// sweep once per harness.
func (h *Harness) qaoaFigure(i int) (*Experiment, error) {
	if h.qaoaFig == nil {
		rt, fid, err := h.RunQAOAFigure()
		if err != nil {
			return nil, err
		}
		h.qaoaFig = []*Experiment{rt, fid}
	}
	return h.qaoaFig[i], nil
}

// RunDQAOAFigure reproduces Fig. 4: total DQAOA time per (QUBO size,
// subqsize, nsubq) configuration on the local MPI backend vs the cloud.
func (h *Harness) RunDQAOAFigure() (*Experiment, error) {
	configs := DQAOAConfigs
	if h.Quick {
		configs = DQAOAQuickConfigs
	}
	exp := &Experiment{
		ID:    "fig4",
		Title: "DQAOA total time per configuration (NWQ-Sim vs IonQ)",
		Notes: "X axis is QUBO size with (subqsize, nsubq) as the secondary label.",
	}
	sels := []BackendSel{
		{Backend: "nwqsim", Subbackend: "openmp"},
		{Backend: "ionq", Subbackend: "simulator"},
	}
	for _, sel := range sels {
		front, err := h.Session.Frontend(core.Properties{Backend: sel.Backend, Subbackend: sel.Subbackend})
		if err != nil {
			return nil, err
		}
		series := Series{Label: sel.Label()}
		for _, cfgSpec := range configs {
			rng := rand.New(rand.NewSource(h.Seed + int64(cfgSpec.QUBOSize)))
			q := qubo.Metamaterial(cfgSpec.QUBOSize, rng)
			res, err := dqaoa.Solve(q, front, dqaoa.Config{
				SubQSize: cfgSpec.SubQSize,
				NSubQ:    cfgSpec.NSubQ,
				MaxIter:  3,
				Patience: 3,
				Async:    true,
				Seed:     h.Seed + 31,
				Shots:    h.Shots,
				MaxEvals: 15,
			})
			pt := Point{
				X:         cfgSpec.QUBOSize,
				Placement: fmt.Sprintf("(%d,%d)", cfgSpec.SubQSize, cfgSpec.NSubQ),
			}
			if err != nil {
				pt.Infeasible = core.IsInfeasible(err)
				pt.Err = err.Error()
			} else {
				pt.RuntimeMS = float64(res.Elapsed) / float64(time.Millisecond)
				pt.Fidelity = 100 * res.Quality
			}
			series.Points = append(series.Points, pt)
		}
		exp.Series = append(exp.Series, series)
	}
	return exp, nil
}

// RunTimelineFigure reproduces Fig. 5: the iteration-level timing of one
// DQAOA configuration on both backends, rendered as an ASCII Gantt chart.
// It returns the experiment plus the two recorders for inspection.
func (h *Harness) RunTimelineFigure(cfgSpec DQAOAConfig) (*Experiment, map[string]*trace.Recorder, error) {
	exp := &Experiment{
		ID:    "fig5",
		Title: fmt.Sprintf("DQAOA-%d (subqsize=%d, nsubq=%d) sub-QAOA timeline", cfgSpec.QUBOSize, cfgSpec.SubQSize, cfgSpec.NSubQ),
		Notes: "Local MPI backend iterations are faster and more uniform; the cloud path adds internet latency and queue waits (paper Fig. 5).",
	}
	recorders := map[string]*trace.Recorder{}
	sels := []BackendSel{
		{Backend: "nwqsim", Subbackend: "openmp"},
		{Backend: "ionq", Subbackend: "simulator"},
	}
	text := ""
	for _, sel := range sels {
		front, err := h.Session.Frontend(core.Properties{Backend: sel.Backend, Subbackend: sel.Subbackend})
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(h.Seed + 99))
		q := qubo.Metamaterial(cfgSpec.QUBOSize, rng)
		rec := trace.NewRecorder()
		res, err := dqaoa.Solve(q, front, dqaoa.Config{
			SubQSize: cfgSpec.SubQSize,
			NSubQ:    cfgSpec.NSubQ,
			MaxIter:  2,
			Patience: 3,
			Async:    true,
			Seed:     h.Seed + 99,
			Shots:    h.Shots,
			MaxEvals: 10,
			Recorder: rec,
		})
		if err != nil {
			return nil, nil, err
		}
		recorders[sel.Label()] = rec
		series := Series{Label: sel.Label()}
		series.Points = append(series.Points, Point{
			X:         cfgSpec.QUBOSize,
			Placement: fmt.Sprintf("(%d,%d)", cfgSpec.SubQSize, cfgSpec.NSubQ),
			RuntimeMS: float64(res.Elapsed) / float64(time.Millisecond),
		})
		exp.Series = append(exp.Series, series)
		text += fmt.Sprintf("\n%s (max concurrent sub-QAOAs: %d)\n%s",
			sel.Label(), rec.MaxConcurrency("subqaoa"), rec.Timeline(72))
	}
	exp.Text = text
	return exp, recorders, nil
}

// ablationDeepWorkload builds the deep layer stacks of the blocked-kernel
// ablation: depth repetitions of (diagonal coupling layer + transverse
// rotation layer) — the stage structure the cache-blocked engine exists
// for. "qaoa" is a p=depth random-QUBO ansatz, "tfim" a depth-step Trotter
// evolution.
func (h *Harness) ablationDeepWorkload(kind string, n, depth int) (*circuit.Circuit, error) {
	switch kind {
	case "qaoa":
		rng := rand.New(rand.NewSource(h.Seed + int64(n)))
		q := qubo.Random(n, 0.5, 1.0, rng)
		ham, _ := q.CostHamiltonian()
		ansatz := qaoa.BuildAnsatz(ham, depth)
		prng := rand.New(rand.NewSource(h.Seed + 7))
		params := make([]float64, 2*depth)
		for j := range params {
			params[j] = 0.1 + 0.8*prng.Float64()
		}
		return ansatz.Bind(qaoa.BindParams(params)).StripMeasurements(), nil
	case "tfim":
		return workloads.TFIM(n, depth, 0.5, 1.0).StripMeasurements(), nil
	}
	return nil, fmt.Errorf("bench: unknown deep ablation workload %q", kind)
}

// Sweeps of the two engine ablations at full size. The committed
// BENCH_kernel.json and BENCH_mps.json were recorded over exactly these.
var (
	kernelSizes = []int{16, 18, 20, 22, 24, 26}
	mpsSizes    = []int{16, 24, 48}
)

// RunKernelAblation measures deep QAOA/TFIM circuits through the
// cache-blocked stage engine (statevec.RunStaged), the per-op fused program
// it replaces above MinQubits (statevec.RunProgram), and the per-gate seed
// kernels (statevec.RunCircuit). Strictly single-core, so the numbers
// isolate memory locality, not parallel speedup. Blocked and fused
// repetitions are interleaved in pairs so shared-machine noise lands on both
// sides of the ratio, and only circuit execution is timed. The per-gate
// baseline stops at perGateCap qubits (a per-gate sweep at n=24+ takes
// minutes); larger points carry an explanatory marker.
func (h *Harness) RunKernelAblation() (*Experiment, error) {
	exp := &Experiment{
		ID:    "ablation-kernel",
		Title: "Cache-blocked stages vs per-op fused vs per-gate execution (deep QAOA/TFIM, one core)",
		Notes: "X axis is the qubit count; each series triplet runs the identical circuit and seed on one pinned core.",
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sizes := kernelSizes
	depths := []int{4, 8}
	perGateCap := 20
	if h.Quick {
		sizes = []int{14, 16}
		depths = []int{2, 4}
		perGateCap = 14
	}
	var blockedDeep, fusedDeep float64 // the n>=20 acceptance aggregate
	for _, kind := range []string{"qaoa", "tfim"} {
		for _, depth := range depths {
			blocked := Series{Label: fmt.Sprintf("%s d=%d blocked", kind, depth)}
			fused := Series{Label: fmt.Sprintf("%s d=%d fused per-op", kind, depth)}
			perGate := Series{Label: fmt.Sprintf("%s d=%d per-gate", kind, depth)}
			for _, n := range sizes {
				c, err := h.ablationDeepWorkload(kind, n, depth)
				if err != nil {
					return nil, err
				}
				plan := circuit.PlanFusion(c)
				sched, err := circuit.PlanTileStages(plan, c, statevec.CurrentTuning().TileBitsFor(n))
				if err != nil {
					return nil, fmt.Errorf("bench: %s n=%d untileable: %w", kind, n, err)
				}
				runBlocked := func() error {
					rng := rand.New(rand.NewSource(h.Seed))
					s, _, ok := statevec.RunStaged(c, plan, sched, 1, rng)
					if !ok {
						return fmt.Errorf("bench: staged engine refused %s n=%d", kind, n)
					}
					s.Release()
					return nil
				}
				runFused := func() error {
					rng := rand.New(rand.NewSource(h.Seed))
					s, _ := statevec.RunProgram(plan.Compile(c), 1, rng)
					s.Release()
					return nil
				}
				// Untimed warmup of both engines: the first execution at a new
				// size pays first-touch page faults for every fresh buffer, and
				// whichever engine ran first would absorb that cost.
				if err := runBlocked(); err != nil {
					return nil, err
				}
				if err := runFused(); err != nil {
					return nil, err
				}
				var bT, fT []float64
				for r := 0; r < max(h.Repeats, 1); r++ {
					t0 := time.Now()
					if err := runBlocked(); err != nil {
						return nil, err
					}
					bT = append(bT, float64(time.Since(t0))/float64(time.Millisecond))
					t0 = time.Now()
					if err := runFused(); err != nil {
						return nil, err
					}
					fT = append(fT, float64(time.Since(t0))/float64(time.Millisecond))
				}
				bm, bs := meanStd(bT)
				fm, fs := meanStd(fT)
				blocked.Points = append(blocked.Points, Point{X: n, Placement: "(1,1)", RuntimeMS: bm, StdMS: bs})
				fused.Points = append(fused.Points, Point{X: n, Placement: "(1,1)", RuntimeMS: fm, StdMS: fs})
				if n >= 20 {
					blockedDeep += bm
					fusedDeep += fm
				}
				if n > perGateCap {
					perGate.Points = append(perGate.Points, Point{X: n, Placement: "(1,1)",
						Infeasible: true, Err: fmt.Sprintf("per-gate baseline capped at %d qubits", perGateCap)})
					continue
				}
				gm, gs, err := h.timedRun(func() error {
					s, _ := statevec.RunCircuit(c, 1, rand.New(rand.NewSource(h.Seed)))
					s.Release()
					return nil
				})
				if err != nil {
					return nil, err
				}
				perGate.Points = append(perGate.Points, Point{X: n, Placement: "(1,1)", RuntimeMS: gm, StdMS: gs})
			}
			exp.Series = append(exp.Series, blocked, fused, perGate)
		}
	}
	if blockedDeep > 0 {
		exp.Notes += fmt.Sprintf(" Aggregate blocked speedup over the per-op fused engine at n>=20: %.2fx.", fusedDeep/blockedDeep)
	}
	return exp, nil
}

// RunMPSAblation measures batches of K identical TFIM / ring-QAOA
// executions through the per-gate MPS path (transpile plus gate-by-gate
// updates with there-and-back swap routing, per element, serially) and
// through the production path (one compiled schedule with a
// persistent-permutation swap route, elements fanned across cores). The
// fused statevector engine runs beside them up to 26 qubits, locating the
// crossover where MPS takes over. Identical circuits and seeds everywhere.
func (h *Harness) RunMPSAblation() (*Experiment, error) {
	const k, maxBond = 8, 64
	exp := &Experiment{
		ID:    "ablation-mps",
		Title: "Compiled+batched vs per-gate MPS execution (TFIM / ring-QAOA, K=8)",
		Notes: fmt.Sprintf("X axis is the qubit count; every series runs the identical K=%d circuit batch with identical seeds.", k),
	}
	shots := h.Shots
	if shots <= 0 {
		shots = 256
	}
	svWorkers := runtime.GOMAXPROCS(0)
	var compiledTotal, perGateTotal float64
	for _, kind := range []string{"tfim", "qaoa-ring"} {
		perGate := Series{Label: kind + " per-gate mps"}
		compiled := Series{Label: kind + " compiled+batched mps"}
		sv := Series{Label: kind + " fused statevector"}
		for _, n := range mpsSizes {
			circ, err := workloads.ByName(kind, n)
			if err != nil {
				return nil, err
			}
			circ = circ.StripMeasurements()
			pm, ps, err := h.timedRun(func() error {
				for i := 0; i < k; i++ {
					rng := rand.New(rand.NewSource(h.Seed + int64(i)))
					if _, _, err := mps.Simulate(circ, shots, maxBond, 0, rng); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			cm, cs, err := h.timedRun(func() error {
				cc, err := mps.CompileCircuit(circ)
				if err != nil {
					return err
				}
				states, err := cc.RunBatch(make([]map[string]float64, k), mps.Options{MaxBond: maxBond})
				if err != nil {
					return err
				}
				for i, m := range states {
					m.Sample(shots, rand.New(rand.NewSource(h.Seed+int64(i))))
					m.Release()
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			perGateTotal += pm
			compiledTotal += cm
			perGate.Points = append(perGate.Points, Point{X: n, Placement: fmt.Sprintf("K=%d", k), RuntimeMS: pm, StdMS: ps})
			compiled.Points = append(compiled.Points, Point{X: n, Placement: fmt.Sprintf("K=%d", k), RuntimeMS: cm, StdMS: cs})
			if n > 26 {
				sv.Points = append(sv.Points, Point{X: n, Placement: fmt.Sprintf("K=%d", k),
					Infeasible: true, Err: fmt.Sprintf("state vector of %d qubits exceeds the ablation budget", n)})
				continue
			}
			sm, ss, err := h.timedRun(func() error {
				for i := 0; i < k; i++ {
					rng := rand.New(rand.NewSource(h.Seed + int64(i)))
					s, _ := statevec.RunFused(circ, nil, svWorkers, rng)
					s.SampleCounts(shots, rng)
					s.Release()
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			sv.Points = append(sv.Points, Point{X: n, Placement: fmt.Sprintf("(1,%d)", svWorkers), RuntimeMS: sm, StdMS: ss})
		}
		exp.Series = append(exp.Series, perGate, compiled, sv)
	}
	if compiledTotal > 0 {
		exp.Notes += fmt.Sprintf(" Aggregate speedup over the per-gate path: %.2fx.", perGateTotal/compiledTotal)
	}
	return exp, nil
}

// RunCapabilityTable reproduces Table 1 from the live backend registry,
// extended with the auto selector's routing decisions over the ablation mix
// (chosen engine, rule, sized resources, predicted cost per workload).
func (h *Harness) RunCapabilityTable() (*Experiment, error) {
	exp := &Experiment{ID: "table1", Title: "Backends used with QFw"}
	text := fmt.Sprintf("%-10s %-42s %-4s %-4s %-10s %s\n", "Backend", "Sub-backends", "CPU", "GPU", "NativeMPI", "Notes")
	for _, backend := range h.Session.Backends() {
		front, err := h.Session.Frontend(core.Properties{Backend: backend})
		if err != nil {
			return nil, err
		}
		caps, err := front.Capabilities()
		if err != nil {
			return nil, err
		}
		text += fmt.Sprintf("%-10s %-42s %-4v %-4v %-10v %s\n",
			caps.Backend, fmt.Sprintf("%v", caps.Subbackends), caps.CPU, caps.GPU, caps.NativeMPI, caps.Notes)
	}
	if table, err := h.RouteDecisionTable(RouteMix); err == nil {
		text += "\nAuto-selector routing decisions (workload mix):\n" + table
	}
	exp.Text = text
	return exp, nil
}

// RunBenchmarkCatalog reproduces Table 2, followed by the experiment table:
// what each qfwbench experiment measures.
func (h *Harness) RunBenchmarkCatalog() *Experiment {
	exp := &Experiment{ID: "table2", Title: "Benchmarks and problem sizes grouped by category"}
	text := fmt.Sprintf("%-8s %-16s %-30s %s\n", "Name", "Category", "Sizes", "Description")
	for _, spec := range Catalog {
		text += fmt.Sprintf("%-8s %-16s %-30s %s\n", spec.Name, spec.Variant, fmt.Sprint(spec.Sizes), spec.Describe)
	}
	text += "\nDQAOA configurations (QUBO size : (subqsize, nsubq)):\n"
	for _, cfgSpec := range DQAOAConfigs {
		text += "  " + cfgSpec.String() + "\n"
	}
	text += "\nExperiments (qfwbench -exp <id>):\n"
	for _, e := range Experiments {
		sweep := "-"
		if len(e.Sizes) > 0 {
			sweep = fmt.Sprintf("n=%v", e.Sizes)
		}
		text += fmt.Sprintf("  %-16s %-24s %s\n", e.ID, sweep, e.Describe)
	}
	exp.Text = text
	return exp
}
