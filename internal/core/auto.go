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
// dense engine at any size worth routing. When the model sizes no candidate
// (no MPS engine registered and a circuit too large for every dense engine)
// the first registered engine in sorted order is the primary, under rule
// "fallback".
//
// Routing consults only the backends actually registered, so the selector
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

// WithModel overrides the cost model (non-nil) and returns the executor — a
// hook for tests and tooling that pass their own calibration.
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
		Notes: fmt.Sprintf("Workload-driven backend selection (paper future work): routes by calibrated cost model across %v.",
			targets),
	}
}

// Decision is one routing verdict: the chosen engine, the sized resources,
// and the predicted per-element cost (0 for a fallback).
type Decision struct {
	Backend     string
	Sub         string
	Rule        string // "clifford", "cost-model" or "fallback"
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
// the sized candidates. The list continues with the remaining model
// candidates in rank order, then every remaining registered local engine in
// sorted order, so a circuit the model sizes no engine for still has a
// primary and somewhere to degrade to. Without fallbacks only the primary
// comes back.
func (a *AutoExecutor) ranked(spec CircuitSpec, fallbacks bool) ([]Decision, error) {
	f, err := a.cache.GetFeatures(spec)
	if err != nil {
		return nil, err
	}
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
	// Clifford circuits short-circuit: the tableau engine is polynomial
	// where everything else is exponential, and exact.
	if _, ok := a.execs["aer"]; ok && f.Clifford {
		ms, _ := a.model.PredictMS(cost.AerStab, f, cost.Resources{})
		add(cost.AerStab, "clifford", cost.Resources{}, ms)
		if !fallbacks {
			return out, nil
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
	env := cost.Env{Workers: statevec.CurrentTuning().Workers, Cores: runtime.GOMAXPROCS(0), MemBytes: a.memBytes}
	for _, c := range a.model.Rank(f, engines, env) {
		add(c.Engine, "cost-model", c.Res, c.MS())
	}
	for _, e := range engines {
		add(e, "fallback", cost.Resources{}, 0)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("auto: no local backend available to route to")
	}
	if !fallbacks {
		out = out[:1]
	}
	return out, nil
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
	ms   float64 // predicted adjoint cost; +Inf when the model cannot price it
}

// gradientTargets is the single discovery point for gradient delegation:
// Capabilities and ExecuteGradient both consult it, so the advertised
// capability can never disagree with the dispatch. The gradient-capable
// engines are ranked by predicted adjoint cost (one forward plus two adjoint
// sweeps ≈ 3 circuit-equivalents of dense statevector work); engines the
// model cannot price (and every engine when f is nil) keep the fixed order —
// the known adjoint engines first, then any other GradientExecutor in
// sorted-name order. The whole ordered list comes back so a failed
// delegation can fall through to the next engine.
func (a *AutoExecutor) gradientTargets(f *cost.Features) []gradCand {
	var rest []string
	for name := range a.execs {
		if name != "aer" && name != "nwqsim" {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	var out []gradCand
	for _, name := range append(append([]string{}, gradPreference...), rest...) {
		ge, ok := a.execs[name].(GradientExecutor)
		if !ok {
			continue
		}
		c := gradCand{name, ge, math.Inf(1)}
		if key, ok := svKeyOf(name); ok && f != nil {
			if p, ok := a.model.PredictMS(key, f, cost.Resources{Workers: statevec.CurrentTuning().Workers}); ok {
				c.ms = 3 * p
			}
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ms < out[j].ms })
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
// (the fixed preference order when the features cannot be extracted).
// Gradient evaluation needs dense simulator state, so the routing candidates
// are the adjoint engines only and the sub-backend is left to the target's
// default.
func (a *AutoExecutor) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	f, _ := a.cache.GetFeatures(spec) // nil on error: the fixed order applies
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
