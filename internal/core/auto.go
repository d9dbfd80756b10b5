package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"qfw/internal/cost"
	"qfw/internal/statevec"
)

// AutoExecutor implements the paper's stated future-work extension:
// automated workload-driven backend selection. Routing is driven by the
// calibrated cost model (internal/cost): per-circuit structural features are
// extracted once per spec hash from the cached fusion plan, every registered
// engine is sized (kernel workers from statevec.CurrentTuning, shard counts
// for the distributed path, bond caps from the entanglement bound) and scored
// on its fitted cost curve, and the argmin wins. Clifford circuits
// short-circuit to the stabilizer engine — polynomial simulation beats every
// dense engine at any size worth routing. When no calibration is available
// (QFW_COST=off) the pre-model structural rules apply:
//
//   - Clifford-only circuits      → aer/stabilizer,
//   - nearest-neighbour circuits  → aer/matrix_product_state,
//   - shallow circuits            → qtensor/numpy,
//   - small dense circuits        → aer/statevector,
//   - everything else             → nwqsim/mpi.
//
// Both paths consult only the backends actually registered, so the selector
// works on sessions launched with a backend subset. A batch is routed once,
// from its shared spec, and runs whole on the chosen engine.
type AutoExecutor struct {
	execs    map[string]Executor
	cache    *ParseCache
	model    *cost.Model
	memBytes int64 // dense-amplitude budget candidate sizing respects (0 = unbounded)
}

// NewAutoExecutor wraps the live executors of a session under the
// process-wide cost model (cost.Current). When the chosen engine fails at
// execution time the submission moves to the next ranked candidate instead
// of failing, and the result's Route is annotated "fallback:<engine>".
func NewAutoExecutor(execs map[string]Executor) *AutoExecutor {
	return &AutoExecutor{execs: execs, cache: NewParseCache(), model: cost.Current()}
}

// WithModel overrides the cost model (nil forces the structural rules) and
// returns the executor — a hook for tests and tooling.
func (a *AutoExecutor) WithModel(m *cost.Model) *AutoExecutor {
	a.model = m
	return a
}

// WithMemBudget sets the session's dense-amplitude memory budget so the
// ranker withdraws state-vector candidates that could only fail, and keeps
// the truncating MPS route alive when it is the only engine that fits.
func (a *AutoExecutor) WithMemBudget(bytes int64) *AutoExecutor {
	a.memBytes = bytes
	return a
}

// Name implements Executor.
func (a *AutoExecutor) Name() string { return "auto" }

// Capabilities implements Executor. CPU/GPU/NativeMPI are the union of what
// the registered local executors advertise — the selector can only deliver a
// capability some routable backend actually has.
func (a *AutoExecutor) Capabilities() Capabilities {
	var targets []string
	var cpu, gpu, nativeMPI bool
	for name, e := range a.execs {
		if name == "ionq" {
			continue // never a routing target
		}
		targets = append(targets, name)
		caps := e.Capabilities()
		cpu = cpu || caps.CPU
		gpu = gpu || caps.GPU
		nativeMPI = nativeMPI || caps.NativeMPI
	}
	sort.Strings(targets)
	_, _, grads := a.gradientTarget(nil)
	mode := "structural rules"
	if a.model != nil {
		mode = "calibrated cost model"
	}
	return Capabilities{
		Backend:     "auto",
		Subbackends: []string{"workload-driven"},
		CPU:         cpu,
		GPU:         gpu,
		NativeMPI:   nativeMPI,
		Gradients:   grads,
		// Routing never targets the cloud path and is a deterministic
		// function of (spec, opts) within one process, so a seeded auto
		// execution replays exactly like its routed local engine.
		DeterministicSeeded: true,
		Notes: fmt.Sprintf("Workload-driven backend selection (paper future work): routes by %s across %v.",
			mode, targets),
	}
}

// Decision is one routing verdict: the chosen engine, the sized resources,
// and the predicted per-element cost (0 without calibration).
type Decision struct {
	Backend     string
	Sub         string
	Rule        string // "clifford", "cost-model", "fallback", or a structural rule name
	Res         cost.Resources
	PredictedMS float64
}

// route renders the annotation string of the decision.
func (d Decision) route() string {
	return strings.TrimSpace(fmt.Sprintf("%s/%s (%s)", d.Backend, d.Sub, d.Rule))
}

// candidateSubs lists the engine keys the model may route to, per backend.
var candidateSubs = map[string][]string{
	"aer":     {"statevector", "matrix_product_state", "stabilizer"},
	"nwqsim":  {"openmp", "mpi"},
	"qtensor": {"numpy"},
	"tnqvm":   {"exatn-mps"},
}

// ranked returns the routing decisions for a submission in preference
// order. The primary comes from the cost model — Clifford circuits
// short-circuit to the tableau engine, everything else takes the argmin of
// the sized candidates — or, without a model (or when the model offers no
// candidate for this session's backends), from the structural rules. With
// fallbacks the list continues with the remaining model candidates in rank
// order, then every remaining registered local engine in sorted order, so a
// session without calibration still has somewhere to degrade to.
func (a *AutoExecutor) ranked(spec CircuitSpec, fallbacks bool) ([]Decision, error) {
	var out []Decision
	add := func(engine, rule string, res cost.Resources, ms float64) {
		backend, sub, _ := strings.Cut(engine, "/")
		for _, d := range out {
			if d.Backend == backend && d.Sub == sub {
				return
			}
		}
		if len(out) > 0 {
			rule = "fallback"
		}
		out = append(out, Decision{Backend: backend, Sub: sub, Rule: rule, Res: res, PredictedMS: ms})
	}
	var f *cost.Features
	if a.model != nil {
		var err error
		if f, err = a.cache.GetFeatures(spec); err != nil {
			return nil, err
		}
		// Clifford circuits short-circuit: the tableau engine is polynomial
		// where everything else is exponential, and exact.
		if _, ok := a.execs["aer"]; ok && f.Clifford {
			ms, _ := a.model.PredictMS(cost.AerStab, f, cost.Resources{})
			add(cost.AerStab, "clifford", cost.Resources{}, ms)
			if !fallbacks {
				return out, nil
			}
		}
	}
	var names, engines []string
	for name := range a.execs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, sub := range candidateSubs[name] {
			engines = append(engines, name+"/"+sub)
		}
	}
	if f != nil {
		env := cost.Env{Workers: statevec.CurrentTuning().Workers, Cores: runtime.GOMAXPROCS(0), MemBytes: a.memBytes}
		for _, c := range a.model.Rank(f, engines, env) {
			add(c.Engine, "cost-model", c.Res, c.MS())
		}
	}
	if len(out) == 0 {
		d, err := a.selectStructural(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if !fallbacks {
		return out[:1], nil
	}
	for _, e := range engines {
		add(e, "fallback", cost.Resources{}, 0)
	}
	return out, nil
}

// selectStructural applies the pre-calibration structural rules against the
// available executors.
func (a *AutoExecutor) selectStructural(spec CircuitSpec) (Decision, error) {
	c, err := a.cache.Get(spec)
	if err != nil {
		return Decision{}, err
	}
	has := func(name string) bool {
		_, ok := a.execs[name]
		return ok
	}
	n := c.NQubits
	depth := c.Depth()
	switch {
	case c.IsClifford() && has("aer"):
		return Decision{Backend: "aer", Sub: "stabilizer", Rule: "clifford"}, nil
	case c.InteractionDistance() <= 1 && n >= 12 && has("aer"):
		return Decision{Backend: "aer", Sub: "matrix_product_state", Rule: "nearest-neighbour"}, nil
	case c.InteractionDistance() <= 1 && n >= 12 && has("tnqvm"):
		return Decision{Backend: "tnqvm", Sub: "exatn-mps", Rule: "nearest-neighbour"}, nil
	case depth <= 8 && n <= 16 && has("qtensor"):
		return Decision{Backend: "qtensor", Sub: "numpy", Rule: "shallow"}, nil
	case n <= 18 && has("aer"):
		return Decision{Backend: "aer", Sub: "statevector", Rule: "small-dense"}, nil
	case has("nwqsim"):
		return Decision{Backend: "nwqsim", Sub: "mpi", Rule: "large-dense"}, nil
	}
	// Fall back to any local executor, preferring deterministic order.
	var names []string
	for name := range a.execs {
		if name != "ionq" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return Decision{}, fmt.Errorf("auto: no local backend available to route to")
	}
	return Decision{Backend: names[0], Rule: "fallback"}, nil
}

// applyResources writes the sized resources into the options, never
// overriding knobs the caller set explicitly.
func applyResources(backend, sub string, res cost.Resources, opts *RunOptions) {
	opts.Subbackend = sub
	if res.MaxBond > 0 && opts.MaxBond == 0 {
		opts.MaxBond = res.MaxBond
	}
	if backend == "nwqsim" && sub == "mpi" && res.Ranks > 0 && opts.Nodes == 0 && opts.ProcsPerNode == 0 {
		opts.Nodes = 1
		opts.ProcsPerNode = res.Ranks
	}
}

// annotate stamps the routing metadata on a result.
func annotate(res *ExecResult, route string, predictedMS, actualMS float64) {
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	res.Extra["auto_routed"] = 1
	if predictedMS > 0 {
		res.Extra["auto_predicted_ms"] = predictedMS
	}
	if actualMS > 0 {
		res.Extra["auto_actual_ms"] = actualMS
	}
	res.Route = route
}

// Execute implements Executor: decide, delegate, and annotate the result
// with the route plus predicted-vs-actual runtime. When the chosen engine
// fails, the next ranked candidate takes the submission; the first
// (primary) error is what callers see if every candidate fails.
func (a *AutoExecutor) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	cands, err := a.ranked(spec, true)
	if err != nil {
		return ExecResult{}, err
	}
	var firstErr error
	for ci, d := range cands {
		target, ok := a.execs[d.Backend]
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("auto: selected backend %q not available", d.Backend)
			}
			continue
		}
		// applyResources mutates the options: each attempt sizes a fresh copy
		// so a fallback engine is not constrained by the primary's sizing.
		attemptOpts := opts
		applyResources(d.Backend, d.Sub, d.Res, &attemptOpts)
		start := time.Now()
		res, err := target.Execute(spec, attemptOpts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("auto[%s->%s/%s]: %w", d.Rule, d.Backend, d.Sub, err)
			}
			continue
		}
		route := d.route()
		if ci > 0 {
			route = fmt.Sprintf("fallback:%s/%s (after %s/%s)", d.Backend, d.Sub, cands[0].Backend, cands[0].Sub)
		}
		annotate(&res, route, d.PredictedMS, float64(time.Since(start))/float64(time.Millisecond))
		return res, nil
	}
	return ExecResult{}, firstErr
}

// ExecuteBatch implements BatchExecutor: the route is decided once per batch
// from the shared spec and the batch is delegated whole — natively when the
// target supports batches, otherwise by rebinding each element through the
// selector's parse cache — with the same fallback order as Execute.
func (a *AutoExecutor) ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	cands, err := a.ranked(spec, true)
	if err != nil {
		return nil, err
	}
	var firstErr error
	for ci, d := range cands {
		results, err := a.delegateBatch(d, spec, bindings, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("auto[%s->%s/%s]: %w", d.Rule, d.Backend, d.Sub, err)
			}
			continue
		}
		route := d.route()
		if ci > 0 {
			route = fmt.Sprintf("fallback:%s/%s (after %s/%s)", d.Backend, d.Sub, cands[0].Backend, cands[0].Sub)
		}
		for i := range results {
			annotate(&results[i], route, d.PredictedMS, 0)
		}
		return results, nil
	}
	return nil, firstErr
}

// delegateBatch runs a batch on one decision's engine.
func (a *AutoExecutor) delegateBatch(d Decision, spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	target, ok := a.execs[d.Backend]
	if !ok {
		return nil, fmt.Errorf("auto: selected backend %q not available", d.Backend)
	}
	applyResources(d.Backend, d.Sub, d.Res, &opts)
	if be, ok := target.(BatchExecutor); ok {
		return be.ExecuteBatch(spec, bindings, opts)
	}
	base, err := a.cache.Get(spec)
	if err != nil {
		return nil, err
	}
	results := make([]ExecResult, len(bindings))
	for i, b := range bindings {
		bound := base.Bind(b)
		elemSpec, serr := SpecFromCircuit(bound)
		if serr != nil {
			return nil, serr
		}
		results[i], err = target.Execute(elemSpec, opts.ForElement(i))
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// gradPreference is the fixed adjoint-engine fallback order.
var gradPreference = []string{"aer", "nwqsim"}

// svKeyOf maps a backend to the statevector-family engine key its adjoint
// path runs on (the adjoint sweep is dense statevector work).
func svKeyOf(backend string) (string, bool) {
	switch backend {
	case "aer":
		return cost.AerSV, true
	case "nwqsim":
		return cost.NWQOpenMP, true
	}
	return "", false
}

// gradCand is one gradient-capable delegation target.
type gradCand struct {
	name string
	ge   GradientExecutor
}

// gradientTargets is the single discovery point for gradient delegation:
// Capabilities and ExecuteGradient both consult it, so the advertised
// capability can never disagree with the dispatch. With features and a
// calibration the gradient-capable engines are ranked by predicted adjoint
// cost (one forward plus two adjoint sweeps ≈ 3 circuit-equivalents of
// dense statevector work); otherwise the known adjoint engines are
// preferred in a fixed order, then any other GradientExecutor in
// sorted-name order for determinism. The whole ordered list comes back so
// a failed delegation can fall through to the next engine.
func (a *AutoExecutor) gradientTargets(f *cost.Features) []gradCand {
	var rest []string
	for name := range a.execs {
		if name != "aer" && name != "nwqsim" {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	names := append(append([]string{}, gradPreference...), rest...)
	if a.model != nil && f != nil {
		type scored struct {
			name string
			ms   float64
			idx  int
		}
		var sc []scored
		for i, name := range names {
			if _, ok := a.execs[name].(GradientExecutor); !ok {
				continue
			}
			ms := math.Inf(1)
			if key, ok := svKeyOf(name); ok {
				if p, ok := a.model.PredictMS(key, f, cost.Resources{Workers: statevec.CurrentTuning().Workers}); ok {
					ms = 3 * p
				}
			}
			sc = append(sc, scored{name, ms, i})
		}
		sort.Slice(sc, func(i, j int) bool {
			if sc[i].ms != sc[j].ms {
				return sc[i].ms < sc[j].ms
			}
			return sc[i].idx < sc[j].idx
		})
		out := make([]gradCand, 0, len(sc))
		for _, s := range sc {
			out = append(out, gradCand{s.name, a.execs[s.name].(GradientExecutor)})
		}
		return out
	}
	var out []gradCand
	for _, name := range names {
		if ge, ok := a.execs[name].(GradientExecutor); ok {
			out = append(out, gradCand{name, ge})
		}
	}
	return out
}

func (a *AutoExecutor) gradientTarget(f *cost.Features) (string, GradientExecutor, bool) {
	if cands := a.gradientTargets(f); len(cands) > 0 {
		return cands[0].name, cands[0].ge, true
	}
	return "", nil, false
}

// ExecuteGradient implements GradientExecutor by delegating to the
// gradient-capable local backend with the lowest predicted adjoint cost
// (fixed preference order without calibration). Gradient evaluation needs
// dense simulator state, so the routing candidates are the adjoint engines
// only and the sub-backend is left to the target's default.
func (a *AutoExecutor) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	var f *cost.Features
	if a.model != nil {
		if ff, err := a.cache.GetFeatures(spec); err == nil {
			f = ff
		}
	}
	cands := a.gradientTargets(f)
	if len(cands) == 0 {
		return nil, fmt.Errorf("auto: no gradient-capable backend available")
	}
	opts.Subbackend = ""
	var firstErr error
	for _, c := range cands {
		res, err := c.ge.ExecuteGradient(spec, bindings, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("auto[gradient->%s]: %w", c.name, err)
			}
			continue
		}
		return res, nil
	}
	return nil, firstErr
}

// Decide exposes the primary routing decision (tests, tooling, the bench
// route table). A batch routes exactly like a single submission, so k does
// not enter the decision; the parameter stays for the callers that pass it.
func (a *AutoExecutor) Decide(spec CircuitSpec, k int) (Decision, error) {
	ds, err := a.ranked(spec, false)
	if err != nil {
		return Decision{}, err
	}
	return ds[0], nil
}

// RouteFor exposes the selection decision for inspection (tests, tooling).
func (a *AutoExecutor) RouteFor(spec CircuitSpec) (backend, sub, rule string, err error) {
	d, err := a.Decide(spec, 1)
	return d.Backend, d.Sub, d.Rule, err
}
