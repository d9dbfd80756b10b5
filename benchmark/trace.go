//go:build linux

package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/qaoa"
	"qfw/internal/serve"
	"qfw/internal/trace"
)

// traceShare: the traced run drives a fifth of the untraced op count, twice
// (once untraced for the overhead reference, once traced).
const traceShare = 5

// spanCap bounds the benchmark's own span buffer; a full traced run records
// a few thousand spans, and trace.spans_dropped reports any overflow.
const spanCap = 1 << 17

// tracer is the traced run's in-memory record: spans (workload → op →
// request → rung) in a span ring of the repository's own trace package, and
// the sums the per-layer metrics are computed from. A nil tracer records
// nothing, which is how the untraced run calls it.
type tracer struct {
	rec     *trace.Recorder
	onReply func(wall time.Duration, res []*core.Result) // ladder L0 only

	mu          sync.Mutex
	overheadMS  float64 // Σ (client wall − server TotalMS)
	lookupMS    float64
	coalesceMS  float64
	predErr     float64 // Σ auto_actual_ms / auto_predicted_ms
	predN       int
	peakBond    float64
	swaps       float64
	minFidelity float64
	solves      int
	evals       int
	solveSelfMS float64
	gap         float64
}

func newTracer() *tracer {
	return &tracer{rec: trace.NewRecorderCap(spanCap), minFidelity: math.Inf(1)}
}

func (t *tracer) span(name, worker string, start, end time.Time) {
	if t != nil && t.rec != nil {
		t.rec.Record(name, worker, start, end, nil)
	}
}

func clientName(id int) string { return "client-" + strconv.Itoa(id) }

// reply records one request's span and folds its results into the sums.
func (t *tracer) reply(client int, cl *class, start time.Time, wall time.Duration, out []*core.Result) {
	if t == nil {
		return
	}
	if t.onReply != nil {
		t.onReply(wall, out)
		return
	}
	t.span("request:"+cl.name, clientName(client), start, start.Add(wall))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.overheadMS += ms(wall) - serverMS(out)
	var lookup, coalesce float64
	for _, r := range out {
		if r == nil {
			continue
		}
		lookup = math.Max(lookup, r.Timings.CacheLookupMS)
		coalesce = math.Max(coalesce, r.Timings.CoalesceWaitMS)
		if p, a := r.Extra["auto_predicted_ms"], r.Extra["auto_actual_ms"]; p > 0 && a > 0 {
			t.predErr += a / p
			t.predN++
		}
		if f, ok := r.Extra["mps_fidelity"]; ok {
			t.minFidelity = math.Min(t.minFidelity, f)
			t.peakBond = math.Max(t.peakBond, r.Extra["mps_peak_bond"])
			t.swaps = math.Max(t.swaps, r.Extra["mps_swaps"])
		}
	}
	t.lookupMS += lookup
	t.coalesceMS += coalesce
}

// timedRunner wraps the Frontend a solve runs on and keeps the wall time
// spent inside runner calls, so the rest of the solve is the client's own.
type timedRunner struct {
	f    *core.Frontend
	wall time.Duration
}

func (r *timedRunner) timed(fn func()) {
	t0 := time.Now()
	fn()
	r.wall += time.Since(t0)
}

func (r *timedRunner) Run(c *circuit.Circuit, opts core.RunOptions) (res *core.Result, err error) {
	r.timed(func() { res, err = r.f.Run(c, opts) })
	return
}

func (r *timedRunner) RunBatch(c *circuit.Circuit, b []core.Bindings, opts core.RunOptions) (res []*core.Result, err error) {
	r.timed(func() { res, err = r.f.RunBatch(c, b, opts) })
	return
}

func (r *timedRunner) RunGradient(c *circuit.Circuit, b []core.Bindings, opts core.RunOptions) (res []core.GradResult, err error) {
	r.timed(func() { res, err = r.f.RunGradient(c, b, opts) })
	return
}

func (r *timedRunner) SupportsGradients() (ok bool) {
	r.timed(func() { ok = r.f.SupportsGradients() })
	return
}

// runner returns what a solve should run on: the Frontend itself, or its
// timing wrapper in the traced run.
func (t *tracer) runner(f *core.Frontend) qaoa.Runner {
	if t == nil {
		return f
	}
	return &timedRunner{f: f}
}

func (t *tracer) solved(runner qaoa.Runner, res *qaoa.Result, opt float64, wall time.Duration) {
	tr, ok := runner.(*timedRunner)
	if t == nil || !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solves++
	t.evals += res.Evals
	t.solveSelfMS += ms(wall - tr.wall)
	t.gap += (res.Energy - opt) / math.Abs(opt)
}

// perLayer is every metric the traced run reports, by name.
type perLayer map[string]metric

func (p perLayer) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	p[name] = metric{v, unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *runner) runTraced(bin string, in *inputs) error {
	n := len(in.Ops) / traceShare
	if r.w.hotSet > n {
		n = r.w.hotSet
	}
	var px *proxy
	sys, _, err := r.setUp(bin, in, true, func(addr string) (string, error) {
		var err error
		px, err = startProxy(addr)
		if err != nil {
			return "", err
		}
		return px.addr(), nil
	})
	if px != nil {
		defer px.close()
	}
	if err != nil {
		return err
	}
	defer r.stop(sys.d)
	defer sys.close()

	// A second set of clients dials the daemon directly: the untraced
	// reference phase and the ladder's L0 must not pay for the proxy.
	var direct []*conn
	for i := 0; i < r.w.clients; i++ {
		c, err := dial(r.w, sys.d.addr, i)
		if err != nil {
			return err
		}
		defer c.rpc.Close()
		c.fills = sys.conns[0].fills
		direct = append(direct, c)
	}
	rep := report{Workload: r.w.name, Seed: r.seed, Seconds: r.seconds, Trace: true, Ops: n, Machine: machineInfo(true)}
	verr := verify(direct[0], in)

	ref, _ := runOps(direct, in, 0, n, r.limit(), nil, nil) // no probe, so no probe error

	tr := newTracer()
	for _, c := range sys.conns {
		c.tr = tr
	}
	backend := r.w.backend
	var stats0, stats1 serve.Stats
	statsClient := serve.NewClient(direct[0].rpc, backend, "")
	if r.w.serve {
		if stats0, err = statsClient.Stats(); err != nil {
			return err
		}
	}
	prom0, err := scrape(sys.d.metricsURL)
	if err != nil {
		return err
	}
	wire0 := px.snapshot()
	phaseStart := time.Now()
	t, _ := runOps(sys.conns, in, n, n, r.limit(), nil, func(client, i int, start time.Time, wall time.Duration) {
		tr.span("op:"+strconv.Itoa(i), clientName(client), start, start.Add(wall))
	})
	tr.span("workload:"+r.w.name, "benchmark", phaseStart, time.Now())
	wire1 := px.snapshot()
	prom1, err := scrape(sys.d.metricsURL)
	if err != nil {
		return err
	}
	if r.w.serve {
		if stats1, err = statsClient.Stats(); err != nil {
			return err
		}
	}
	for _, c := range sys.conns {
		c.tr = nil
	}
	if verr == nil {
		verr = ref.firstErr
	}
	if verr == nil {
		verr = t.firstErr
	}
	good := float64(len(t.latMS))
	if good == 0 || len(ref.latMS) == 0 {
		return fmt.Errorf("no traced op of %s succeeded: %v", r.w.name, verr)
	}

	lister, err := core.NewFrontend(direct[0].rpc, core.Properties{Backend: backend})
	if err != nil {
		return err
	}
	tasks, err := lister.List()
	if err != nil {
		return err
	}

	lad, err := newLadder(r.w, direct[0], tr, in)
	if err != nil {
		return err
	}
	defer lad.close()
	var classes []*classLadder
	for i := range in.Classes {
		c, err := lad.climb(&in.Classes[i])
		if err != nil {
			return fmt.Errorf("ladder %s: %w", in.Classes[i].name, err)
		}
		classes = append(classes, c)
	}

	var echo [3]float64
	for i, size := range echoSizes {
		if echo[i], err = echoRTT(size); err != nil {
			return err
		}
	}
	refRate := float64(len(ref.latMS)) / ref.wall.Seconds()
	tracedRate := good / t.wall.Seconds()
	m := layerMetrics(&traceData{
		solve: r.w.solve, backend: backend, ops: good, wallMS: ms(t.wall),
		wire:  wire{bytes: wire1.bytes - wire0.bytes, frames: wire1.frames - wire0.frames, rpcs: wire1.rpcs - wire0.rpcs},
		prom0: prom0, prom1: prom1, stats0: stats0, stats1: stats1,
		tr: tr, tasks: len(tasks), classes: classes, echoUS: echo, refRate: refRate, tracedRate: tracedRate,
	})
	unexplained := m["waterfall.unexplained_pct"].Value

	if err := writeTrace(tr.rec, r.w.name); err != nil {
		return err
	}
	if verr == nil && unexplained > maxUnexplainedPct {
		verr = fmt.Errorf("waterfall.unexplained_pct %.1f exceeds %d: the ladder does not explain the client-observed latency", unexplained, maxUnexplainedPct)
	}
	if verr != nil {
		rep.Error = verr.Error()
		fmt.Fprintln(os.Stderr, "benchmark:", verr)
	}
	rep.Samples = int(good)
	rep.Metrics = m
	rep.Ladder = classes
	rep.Extra = map[string]metric{
		"ref_ops_per_s":    {refRate, "op/s"},
		"traced_ops_per_s": {tracedRate, "op/s"},
	}
	attempted, failed := ref.attempted+t.attempted, ref.failed+t.failed
	return emit(rep, result{
		Correct:   verr == nil && failed == 0,
		Attempted: attempted, Failed: failed, Metrics: m,
	})
}

// echoSizes are the payload sizes of the three defw.echo_rtt_us_* metrics.
var echoSizes = [3]int{1 << 10, 64 << 10, 1 << 20}

// traceData is everything the traced run measured, before it is reduced to
// the per-layer metrics.
type traceData struct {
	solve        bool
	backend      string
	ops          float64 // validated ops of the traced phase
	wallMS       float64 // its wall time
	wire         wire    // proxy counters over the phase
	prom0, prom1 map[string]float64
	stats0       serve.Stats
	stats1       serve.Stats
	tr           *tracer
	tasks        int // Frontend.List() at the end
	classes      []*classLadder
	echoUS       [3]float64
	refRate      float64 // op/s of the untraced reference phase
	tracedRate   float64
}

// layerMetrics reduces a traced run to the per-layer metrics of
// BENCHMARK.json. It always returns every one of them: a metric that does
// not apply to the workload is zero.
func layerMetrics(d *traceData) perLayer {
	m := perLayer{}
	delta := func(name string) float64 {
		return d.prom1[qpmSample(name, d.backend)] - d.prom0[qpmSample(name, d.backend)]
	}
	good, wallMS, tr, classes := d.ops, d.wallMS, d.tr, d.classes
	stats0, stats1 := d.stats0, d.stats1

	// From the traced phase: the proxy, the replies, /metrics and Stats.
	m.set("core.rpcs_per_op", float64(d.wire.rpcs)/good, "count")
	m.set("defw.frames_per_op", float64(d.wire.frames)/good, "count")
	m.set("defw.wire_bytes_per_op", float64(d.wire.bytes)/good, "B")
	m.set("core.tasks_retained", float64(d.tasks), "count")
	m.set("core.frontend_overhead_ms", tr.overheadMS/good, "ms")
	m.set("core.qpm_queue_ms", ratio(delta("qfw_qpm_queue_ms_sum"), delta("qfw_qpm_queue_ms_count")), "ms")
	m.set("core.qpm_exec_ms", ratio(delta("qfw_qpm_exec_ms_sum"), delta("qfw_qpm_exec_ms_count")), "ms")
	m.set("core.qpm_attempts_per_op", (delta("qfw_qpm_tasks_total")+delta("qfw_qpm_retries_total"))/good, "count")
	m.set("core.qpm_busy_ratio", delta("qfw_qpm_exec_ms_sum")/(wallMS*qfwdWorkers), "ratio")
	m.set("core.route_pred_err_ratio", ratio(tr.predErr, float64(tr.predN)), "ratio")
	m.set("serve.hit_ratio", ratio(float64(stats1.CacheHits-stats0.CacheHits), float64(stats1.CacheHits-stats0.CacheHits+stats1.CacheMisses-stats0.CacheMisses)), "ratio")
	m.set("serve.dedup_per_kop", 1000*float64(stats1.Deduped-stats0.Deduped)/good, "count")
	m.set("serve.shed_per_kop", 1000*float64(stats1.Shed-stats0.Shed)/good, "count")
	m.set("serve.elems_per_dispatch", ratio(float64(stats1.DispatchElems-stats0.DispatchElems), float64(stats1.DispatchGroups-stats0.DispatchGroups)), "count")
	m.set("serve.peak_queue_depth", float64(stats1.PeakQueueDepth), "count")
	m.set("serve.cache_len", float64(stats1.CacheLen), "count")
	m.set("serve.lookup_ms", tr.lookupMS/good, "ms")
	m.set("serve.coalesce_wait_ms", tr.coalesceMS/good, "ms")
	m.set("mps.peak_bond", tr.peakBond, "count")
	m.set("mps.swaps", tr.swaps, "count")
	m.set("mps.min_fidelity", tr.minFidelity, "ratio")
	solves := float64(tr.solves)
	m.set("qaoa.evals_per_solve", ratio(float64(tr.evals), solves), "count")
	m.set("qaoa.client_self_ms", ratio(tr.solveSelfMS, solves), "ms")
	m.set("qaoa.gap_to_optimum", ratio(tr.gap, solves), "ratio")
	var solveRPCs float64
	if d.solve {
		solveRPCs = float64(d.wire.rpcs) / good
	}
	m.set("qaoa.rpcs_per_solve", solveRPCs, "count")

	// From the ladder: per-op sums over the workload's classes. A solve's op
	// is not a round over its classes, so its sums are per request pair.
	var sum struct {
		serveSelf, qpmSelf, backendSelf             float64
		emit, spec, parse, plan, extract, decide    float64
		run, sample, expect, grad, compile, mpsExec float64
		mpsSample, ampUpdates, runNS                float64
		gates, fused, parses, l2Calls               float64
		routed, pinned, unexplainedMS, l0           float64
	}
	for _, c := range classes {
		sum.serveSelf += c.Self[rungServe]
		sum.qpmSelf += c.Self[rungQPM]
		sum.backendSelf += c.Self[rungExecutor]
		sum.emit += c.emitUS
		sum.spec += c.specUS
		sum.parse += c.parseUS
		sum.plan += c.planUS
		sum.extract += c.extractUS
		sum.decide += c.decideUS
		sum.compile += c.compileMS
		st := &c.stage
		sum.run += st.meanMS(&st.run)
		sum.sample += st.meanMS(&st.sample)
		sum.expect += st.meanMS(&st.expect)
		sum.grad += st.meanMS(&st.grad)
		sum.mpsExec += st.meanMS(&st.mpsRun)
		sum.mpsSample += st.meanMS(&st.mpsSmp)
		sum.ampUpdates += float64(st.ampUpdates.Load())
		sum.runNS += float64(st.run.Load())
		sum.gates += float64(c.gates)
		sum.fused += float64(c.fusedOps)
		sum.parses += float64(c.parses)
		sum.l2Calls += float64(c.l2Calls)
		if c.BestPinned != "" {
			sum.routed += c.Rung[rungExecutor]
			sum.pinned += c.BestPinnedMS
		}
		sum.unexplainedMS += c.unexplainedMS
		sum.l0 += c.Rung[rungClient]
	}
	m.set("serve.self_ms", sum.serveSelf, "ms")
	m.set("core.qpm_self_ms", sum.qpmSelf, "ms")
	m.set("backends.self_ms", sum.backendSelf, "ms")
	m.set("core.frontend_spec_us", sum.spec, "us")
	m.set("core.parses_per_kop", 1000*ratio(sum.parses, sum.l2Calls), "count")
	m.set("core.route_decide_us", sum.decide, "us")
	m.set("core.route_regret_ratio", ratio(sum.routed, sum.pinned), "ratio")
	m.set("cost.extract_us", sum.extract, "us")
	m.set("circuit.qasm_emit_us", sum.emit, "us")
	m.set("circuit.qasm_parse_us", sum.parse, "us")
	m.set("circuit.plan_fusion_us", sum.plan, "us")
	m.set("circuit.fuse_ratio", ratio(sum.gates, sum.fused), "ratio")
	m.set("statevec.run_ms", sum.run, "ms")
	m.set("statevec.sample_ms", sum.sample, "ms")
	m.set("statevec.expect_ms", sum.expect, "ms")
	m.set("statevec.grad_ms", sum.grad, "ms")
	m.set("statevec.amp_updates_per_s", ratio(sum.ampUpdates, sum.runNS/1e9), "1/s")
	m.set("mps.compile_ms", sum.compile, "ms")
	m.set("mps.execute_ms", sum.mpsExec, "ms")
	m.set("mps.sample_ms", sum.mpsSample, "ms")
	m.set("waterfall.unexplained_pct", 100*ratio(sum.unexplainedMS, sum.l0), "%")

	// The DEFw layer alone, and the health of the measurement itself.
	m.set("defw.echo_rtt_us_1k", d.echoUS[0], "us")
	m.set("defw.echo_rtt_us_64k", d.echoUS[1], "us")
	m.set("defw.echo_rtt_us_1m", d.echoUS[2], "us")
	m.set("trace.overhead_pct", 100*ratio(d.refRate-d.tracedRate, d.refRate), "%")
	m.set("trace.spans_dropped", float64(tr.rec.Stats().Dropped), "count")
	return m
}

// maxUnexplainedPct fails a traced run whose ladder does not add up.
const maxUnexplainedPct = 15

func writeTrace(rec *trace.Recorder, workload string) error {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
