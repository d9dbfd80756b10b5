//go:build linux

package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/cost"
	"qfw/internal/mps"
	"qfw/internal/serve"
	"qfw/internal/stabilizer"
	"qfw/internal/statevec"

	_ "qfw/internal/backends" // the in-process session needs the same five backends qfwd registers
)

// The layer ladder is the third instrument of the traced run. The same
// request is timed at five public entry points, outermost first:
//
//	L0.client   Frontend / serve.Client over TCP to the qfwd under test
//	L1.serve    serve.Server.Exec                  (serve workloads only)
//	L2.qpm      QPM.Submit + Wait
//	L3.executor Session.Executor(backend).Execute
//	L4.engine   the engine calls alone, from an already parsed and planned circuit
//
// L1 to L4 run on a session launched inside this process with qfwd's
// defaults. A layer's self time is the difference between adjacent rungs.
// The rungs are separate executions of the same request, not spans of one
// request, so a self time is a median of differences and can come out
// slightly negative on a layer that does next to nothing.
const (
	rungClient = iota
	rungServe
	rungQPM
	rungExecutor
	rungEngine
	numRungs
)

var rungNames = [numRungs]string{"L0.client", "L1.serve", "L2.qpm", "L3.executor", "L4.engine"}

// qfwd's defaults, repeated here for the in-process session; the daemon
// under test always runs with its own.
const (
	qfwdWorkers  = 8
	qfwdCacheCap = 4096
	qfwdWindow   = 2 * time.Millisecond
)

// classLadder is the ladder of one request class. Times are medians in
// milliseconds; a rung that is not on the class's path is negative.
type classLadder struct {
	Class  string            `json:"class"`
	Engine string            `json:"engine"`
	Route  string            `json:"route,omitempty"`
	Rung   [numRungs]float64 `json:"rung_ms"`
	// Self is each rung's self time: the median over the rounds of (this
	// rung − the next one in), paired within a round so that drift between
	// rounds cancels; the innermost rung's self time is its own median. Zero
	// for a rung off the path.
	Self [numRungs]float64 `json:"self_ms"`
	// OverheadMS is the median of (client wall − the reply's Timings.TotalMS)
	// over the L0 requests: the program's own account of the same gap the
	// ladder measures as L0 − outermost in-process rung. Negative when the
	// replies carry no timings (gradient requests).
	OverheadMS float64 `json:"frontend_overhead_ms"`
	// UnexplainedPct is the larger of the two cross-checks, as a share of L0.
	UnexplainedPct float64 `json:"unexplained_pct"`
	// BestPinnedMS and BestPinned are, for auto-routed classes, the fastest
	// pinned engine at L3 and its time.
	BestPinnedMS float64 `json:"best_pinned_ms,omitempty"`
	BestPinned   string  `json:"best_pinned,omitempty"`

	unexplainedMS float64

	stage     stageSums
	gates     int
	fusedOps  int
	emitUS    float64
	specUS    float64
	parseUS   float64
	planUS    float64
	extractUS float64
	decideUS  float64
	compileMS float64
	parses    int64 // QPM spec-cache parses during the L2 rung
	l2Calls   int
}

// stageSums accumulates the engine's stage times over every L4 call (ns).
type stageSums struct {
	calls                                     atomic.Int64
	run, sample, expect, grad, mpsRun, mpsSmp atomic.Int64
	ampUpdates                                atomic.Int64
}

func (s *stageSums) meanMS(v *atomic.Int64) float64 {
	if n := s.calls.Load(); n > 0 {
		return float64(v.Load()) / float64(n) / 1e6
	}
	return 0
}

type ladder struct {
	w    *workload
	sess *core.Session
	srv  *serve.Server
	ext  *conn
	tr   *tracer
	rng  *rand.Rand
	seed int64
	// replyWall is the wall time of the latest L0 request as its reply hook
	// saw it; zero for requests that have none (gradients).
	replyWall time.Duration
}

// newLadder launches the in-process twin of the daemon: same backends, same
// worker count, same serving-layer settings.
func newLadder(w *workload, ext *conn, tr *tracer, in *inputs) (*ladder, error) {
	sess, err := core.Launch(core.Config{Workers: qfwdWorkers, UseTCP: true, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("ladder: launch: %w", err)
	}
	l := &ladder{w: w, sess: sess, ext: ext, tr: tr, rng: rand.New(rand.NewSource(in.CheckSeed)), seed: in.CheckSeed + 1<<41}
	if w.serve {
		l.srv = serve.New(sess.QPM(w.backend), serve.Config{CacheCap: qfwdCacheCap, Window: qfwdWindow}, sess.Rec)
	}
	return l, nil
}

func (l *ladder) close() {
	if l.srv != nil {
		l.srv.Close()
	}
	l.sess.Teardown()
}

// next returns the inputs of the next ladder request: fresh, unless the
// workload is a hot set, whose requests repeat one input.
func (l *ladder) next(cl *class) (int64, []core.Bindings) {
	if l.w.hotSet == 0 {
		l.seed++
	}
	var b []core.Bindings
	rng := l.rng
	if l.w.hotSet > 0 {
		rng = rand.New(rand.NewSource(l.seed))
	}
	for i := 0; i < cl.k; i++ {
		b = append(b, randomBinding(rng))
	}
	return l.seed, b
}

// measure is rounds for a single call: its median time in ms.
func (l *ladder) measure(name string, fn func() error) (float64, error) {
	samples, err := l.rounds(150*time.Millisecond, []string{name}, []func() error{fn})
	if err != nil {
		return 0, err
	}
	return median(samples[0]), nil
}

// climb measures every rung of one class. The rungs are interleaved — one
// call of each per round — so every in-process rung runs with the caches and
// scheduler in the state a real request finds them in, just after a round
// trip through the daemon, and slow drift hits all rungs alike.
func (l *ladder) climb(cl *class) (*classLadder, error) {
	out := &classLadder{Class: cl.name, OverheadMS: -1}
	for i := range out.Rung {
		out.Rung[i] = -1
	}
	grad := l.w.solve && cl.k > 0
	sub := l.w.sub
	qpm := l.sess.QPM(l.w.backend)
	exec := l.sess.Executor(l.w.backend)
	if qpm == nil || exec == nil {
		return nil, fmt.Errorf("the in-process session has no backend %q", l.w.backend)
	}
	rungs := make([]func() error, numRungs)

	// L0: over TCP to the daemon under test, as the timed phase does. Its
	// time is the request's own wall (replyWall), without the benchmark's
	// validation of the reply.
	var overhead []float64
	l.ext.tr = &tracer{onReply: func(wall time.Duration, res []*core.Result) {
		l.replyWall = wall
		overhead = append(overhead, ms(wall)-serverMS(res))
	}}
	defer func() { l.ext.tr = nil }()
	rungs[rungClient] = func() error {
		seed, b := l.next(cl)
		if grad {
			_, err := l.ext.front.RunGradient(cl.circ, b, cl.runOpts(seed, ""))
			return err
		}
		_, err := l.ext.request(cl, seed, b)
		return err
	}
	if l.srv != nil {
		rungs[rungServe] = func() error {
			seed, b := l.next(cl)
			_, errs, _, err := l.srv.Exec("ladder", cl.spec, b, cl.runOpts(seed, sub))
			if err != nil {
				return err
			}
			return firstErr(errs)
		}
	}
	// A cache hit never leaves the serving layer: there is nothing below L1.
	if l.w.hotSet > 0 {
		out.Engine = "cache"
	} else {
		rungs[rungQPM] = func() error {
			out.l2Calls++
			seed, b := l.next(cl)
			opts := cl.runOpts(seed, sub)
			switch {
			case grad:
				id, err := qpm.SubmitGradient(cl.spec, b, opts)
				if err != nil {
					return err
				}
				_, err = qpm.WaitGradient(id)
				return err
			case cl.k > 0:
				id, err := qpm.SubmitBatch(cl.spec, b, opts)
				if err != nil {
					return err
				}
				_, errs, err := qpm.WaitBatch(id)
				if err != nil {
					return err
				}
				return firstErr(errs)
			}
			id, err := qpm.Submit(cl.spec, opts)
			if err != nil {
				return err
			}
			_, err = qpm.Wait(id)
			return err
		}
		var probe core.ExecResult
		rungs[rungExecutor] = func() error {
			seed, b := l.next(cl)
			var err error
			probe, err = execute(exec, cl, grad, b, cl.runOpts(seed, sub))
			return err
		}
		// One executor call tells which engine the request lands on.
		if err := rungs[rungExecutor](); err != nil {
			return nil, fmt.Errorf("%s:%s: %w", rungNames[rungExecutor], cl.name, err)
		}
		out.Route = probe.Route
		switch {
		case grad:
			out.Engine = "statevec-grad"
		case probe.Extra["mps_fidelity"] > 0:
			out.Engine = "mps"
		case strings.Contains(probe.Route, "stabilizer"):
			out.Engine = "stabilizer"
		default:
			out.Engine = "statevec"
		}
		engine, err := l.engineRung(cl, out)
		if err != nil {
			return nil, err
		}
		rungs[rungEngine] = func() error {
			seed, b := l.next(cl)
			return engine(seed, b)
		}
	}

	names := make([]string, numRungs)
	for r := range names {
		names[r] = rungNames[r] + ":" + cl.name
	}
	parses0 := qpm.ParseCount()
	samples, err := l.rounds(600*time.Millisecond, names, rungs)
	if err != nil {
		return nil, err
	}
	out.parses = qpm.ParseCount() - parses0
	inner := -1 // the next rung in, walking outwards
	for r := numRungs - 1; r >= 0; r-- {
		if rungs[r] == nil {
			continue
		}
		out.Rung[r] = median(samples[r])
		out.Self[r] = out.Rung[r]
		if inner >= 0 {
			diff := make([]float64, len(samples[r]))
			for i := range diff {
				diff[i] = samples[r][i] - samples[inner][i]
			}
			out.Self[r] = median(diff)
		}
		inner = r
	}
	if len(overhead) > 1 {
		out.OverheadMS = median(overhead[1:]) // the first reply is the warming call
	}
	if l.w.backend == "auto" {
		if err := l.bestPinned(cl, out); err != nil {
			return nil, err
		}
	}
	l.crossCheck(out)
	return out, nil
}

// rounds calls every non-nil fn once untimed, then in rounds of one timed
// call each: at least minRounds, and on until the budget is spent. It
// returns the samples (ms) of each fn, aligned by round.
func (l *ladder) rounds(budget time.Duration, names []string, fns []func() error) ([][]float64, error) {
	const (
		minRounds = 9
		maxRounds = 150
	)
	samples := make([][]float64, len(fns))
	begin := time.Now()
	for round := -1; round < minRounds || (round < maxRounds && time.Since(begin) < budget); round++ {
		for r, fn := range fns {
			if fn == nil {
				continue
			}
			l.replyWall = 0
			t0 := time.Now()
			if err := fn(); err != nil {
				return nil, fmt.Errorf("%s: %w", names[r], err)
			}
			if round >= 0 { // round -1 warms
				t1 := time.Now()
				if l.replyWall > 0 { // an L0 request reports its own wall
					t1 = t0.Add(l.replyWall)
				}
				l.tr.span(names[r], "ladder", t0, t1)
				samples[r] = append(samples[r], ms(t1.Sub(t0)))
			}
		}
	}
	return samples, nil
}

// execute is the L3 call: the executor's method for the request's kind.
func execute(exec core.Executor, cl *class, grad bool, b []core.Bindings, opts core.RunOptions) (core.ExecResult, error) {
	switch {
	case grad:
		ge, ok := exec.(core.GradientExecutor)
		if !ok {
			return core.ExecResult{}, fmt.Errorf("%s has no gradient executor", exec.Name())
		}
		_, err := ge.ExecuteGradient(cl.spec, b, opts)
		return core.ExecResult{}, err
	case cl.k > 0:
		be, ok := exec.(core.BatchExecutor)
		if !ok {
			return core.ExecResult{}, fmt.Errorf("%s has no batch executor", exec.Name())
		}
		res, err := be.ExecuteBatch(cl.spec, b, opts)
		if err != nil || len(res) == 0 {
			return core.ExecResult{}, err
		}
		return res[0], nil
	}
	return exec.Execute(cl.spec, opts)
}

// serverMS is the server's own account of a request, from the Timings of
// its results. The elements of one submission share one executor call and
// each carries that call's mean as its ExecMS (see core.Timings), so the
// call's length is their sum; everything before it (lookup, admission,
// queue) the elements wait out together, so it counts once, at its longest.
func serverMS(res []*core.Result) float64 {
	var before, exec float64
	for _, r := range res {
		if r == nil {
			continue
		}
		exec += r.Timings.ExecMS
		if b := r.Timings.TotalMS - r.Timings.ExecMS; b > before {
			before = b
		}
	}
	return before + exec
}

// crossCheck fills UnexplainedPct: how far the self times, clamped at zero,
// are from summing to L0 (non-zero only when an inner rung came out slower
// than the one around it), and how far the ladder's client-side gap — L0's
// self time — is from the one the program reports in its own Timings.
func (l *ladder) crossCheck(c *classLadder) {
	var sum float64
	for _, v := range c.Self {
		if v > 0 {
			sum += v
		}
	}
	c.unexplainedMS = math.Abs(c.Rung[rungClient] - sum)
	if c.OverheadMS >= 0 {
		if u := math.Abs(c.Self[rungClient] - c.OverheadMS); u > c.unexplainedMS {
			c.unexplainedMS = u
		}
	}
	c.UnexplainedPct = 100 * c.unexplainedMS / c.Rung[rungClient]
}

// engineRung prepares the L4 call of a class (parse, plan and compile are
// timed on the way, as the circuit.* and mps.compile_ms metrics) and returns
// it. It mirrors what the executors do with an already cached circuit.
func (l *ladder) engineRung(cl *class, out *classLadder) (func(seed int64, b []core.Bindings) error, error) {
	workers := runtime.GOMAXPROCS(0)
	var parsed *circuit.Circuit
	var plan *circuit.FusionPlan
	var err error
	us := func(fn func() error) float64 {
		v, e := l.measure("prepare:"+cl.name, fn)
		if e != nil && err == nil {
			err = e
		}
		return v * 1e3
	}
	out.emitUS = us(func() error { _, e := cl.circ.ToSymbolicQASM(); return e })
	out.specUS = us(func() error { _, e := core.SpecFromParametric(cl.circ); return e })
	out.parseUS = us(func() error { parsed, err = circuit.ParseQASM(cl.spec.QASM); return err })
	if err != nil {
		return nil, err
	}
	body := parsed.StripMeasurements()
	out.planUS = us(func() error { plan = circuit.PlanFusion(body); return nil })
	out.extractUS = us(func() error { cost.Extract(parsed, plan); return nil })
	if auto := l.sess.Auto(); auto != nil && l.w.backend == "auto" {
		out.decideUS = us(func() error { _, e := auto.Decide(cl.spec, 1); return e })
	}
	if err != nil {
		return nil, err
	}
	out.gates, out.fusedOps = len(body.Gates), plan.NumOps()
	shots := cl.shots
	if shots <= 0 {
		shots = 1024 // what the executors sample when a request names no shots
	}
	st := &out.stage

	switch out.Engine {
	case "statevec-grad":
		gplan := circuit.PlanFusionGrad(parsed)
		obs := statevec.GradObs{Diag: cl.obs.EnergyOfIndex}
		return func(_ int64, b []core.Bindings) error {
			maps := make([]map[string]float64, len(b))
			for i := range b {
				maps[i] = b[i]
			}
			t0 := time.Now()
			_, err := statevec.GradientAdjointBatch(gplan, maps, obs, workers)
			st.calls.Add(1)
			st.grad.Add(int64(time.Since(t0)))
			return err
		}, nil

	case "mps":
		if cl.obs != nil {
			return nil, fmt.Errorf("%s: no L4 rung for an observable on the MPS engine", cl.name)
		}
		var cc *mps.Compiled
		out.compileMS = us(func() error { cc, err = mps.CompileCircuit(parsed); return err }) / 1e3
		if err != nil {
			return nil, err
		}
		opt := mps.Options{MaxBond: cl.maxBond, Workers: workers}
		if opt.MaxBond <= 0 {
			opt.MaxBond = mps.DefaultMaxBond
		}
		return func(seed int64, _ []core.Bindings) error {
			t0 := time.Now()
			m, err := cc.Execute(nil, opt)
			if err != nil {
				return err
			}
			t1 := time.Now()
			m.Sample(shots, rand.New(rand.NewSource(seed)))
			st.mpsSmp.Add(int64(time.Since(t1)))
			st.mpsRun.Add(int64(t1.Sub(t0)))
			st.calls.Add(1)
			m.Release()
			return nil
		}, nil

	case "stabilizer":
		return func(seed int64, _ []core.Bindings) error {
			st.calls.Add(1)
			_, err := stabilizer.Simulate(parsed, shots, rand.New(rand.NewSource(seed)))
			return err
		}, nil
	}

	// Dense state vector: one element per binding, fanned out like the
	// executors' batch path.
	one := func(c *circuit.Circuit, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		t0 := time.Now()
		s, _ := statevec.RunFused(c.StripMeasurements(), plan, workers, rng)
		t1 := time.Now()
		s.SampleCounts(shots, rng)
		t2 := time.Now()
		if cl.obs != nil {
			s.ExpectationDiagonal(cl.obs.EnergyOfIndex)
			st.expect.Add(int64(time.Since(t2)))
		}
		s.Release()
		st.run.Add(int64(t1.Sub(t0)))
		st.sample.Add(int64(t2.Sub(t1)))
		st.ampUpdates.Add(int64(plan.NumOps()) << uint(c.NQubits))
	}
	return func(seed int64, b []core.Bindings) error {
		st.calls.Add(1)
		if cl.k == 0 {
			one(parsed, seed)
			return nil
		}
		core.FanOut(len(b), workers, func(i int) { one(parsed.Bind(b[i]), seed+int64(i)) })
		return nil
	}, nil
}

// bestPinned times the request at L3 on every engine it could have been
// pinned to, for the routing-regret metric.
func (l *ladder) bestPinned(cl *class, out *classLadder) error {
	type pin struct{ backend, sub string }
	pins := []pin{{"aer", "matrix_product_state"}}
	if cl.circ.NQubits <= oracleWidth {
		pins = append(pins, pin{"aer", "statevector"}, pin{"nwqsim", "openmp"})
	}
	if cl.circ.IsClifford() {
		pins = append(pins, pin{"aer", "stabilizer"})
	}
	for _, p := range pins {
		exec := l.sess.Executor(p.backend)
		if exec == nil {
			continue
		}
		v, err := l.measure("pinned:"+p.backend+"/"+p.sub+":"+cl.name, func() error {
			seed, _ := l.next(cl)
			_, err := exec.Execute(cl.spec, cl.runOpts(seed, p.sub))
			return err
		})
		if err != nil {
			return err
		}
		if out.BestPinned == "" || v < out.BestPinnedMS {
			out.BestPinned, out.BestPinnedMS = p.backend+"/"+p.sub, v
		}
	}
	return nil
}
