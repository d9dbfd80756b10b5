//go:build linux

package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/core"
	"qfw/internal/defw"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/serve"
)

// conn is one closed-loop client: its own TCP connection to the daemon and
// the handle an application would hold on it.
type conn struct {
	w     *workload
	rpc   *defw.Client
	front *core.Frontend
	sc    *serve.Client
	id    int
	// tr, set in the traced run only, sees every reply and every solve.
	tr *tracer
	// fills, on a hot-set workload, maps each hot request to the payload of
	// the miss that filled the cache. It is written during warm-up only
	// (filling) and shared read-only by the clients afterwards.
	fills   map[string]string
	filling bool
}

func dial(w *workload, addr string, id int) (*conn, error) {
	rpc, err := defw.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial qfwd: %w", err)
	}
	c := &conn{w: w, rpc: rpc, id: id}
	if w.serve {
		c.sc = serve.NewClient(rpc, w.backend, "tenant-"+strconv.Itoa(id))
		return c, nil
	}
	c.front, err = core.NewFrontend(rpc, core.Properties{Backend: w.backend, Subbackend: w.sub})
	if err != nil {
		rpc.Close()
		return nil, err
	}
	return c, nil
}

// request sends one request of a class exactly as an application would and
// returns its results (one per binding, or one for a bound run).
func (c *conn) request(cl *class, seed int64, bindings []core.Bindings) ([]*core.Result, error) {
	opts := cl.runOpts(seed, "")
	start := time.Now()
	var out []*core.Result
	var err error
	switch {
	case c.sc != nil && cl.k > 0:
		var errs []string
		out, errs, _, err = c.sc.RunBatch(cl.spec, bindings, opts)
		if err == nil {
			err = firstErr(errs)
		}
	case c.sc != nil:
		var res *core.Result
		res, _, err = c.sc.Run(cl.spec, opts)
		out = []*core.Result{res}
	case cl.k > 0:
		out, err = c.front.RunBatch(cl.circ, bindings, opts)
	default:
		var res *core.Result
		res, err = c.front.Run(cl.circ, opts)
		out = []*core.Result{res}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cl.name, err)
	}
	c.tr.reply(c.id, cl, start, time.Since(start), out)
	if err := checkReplies(c.w, cl, out); err != nil {
		return nil, err
	}
	if c.fills != nil {
		key := cl.name + "/" + strconv.FormatInt(seed, 10)
		got := payloadOf(out)
		if filled, ok := c.fills[key]; ok && filled != got {
			return nil, fmt.Errorf("%s: replay differs from the miss that filled the cache", cl.name)
		} else if !ok && c.filling {
			c.fills[key] = got
		}
	}
	return out, nil
}

// checkReplies applies the per-reply invariants: the right number of
// results, counts that sum to the shots over keys of the circuit's width, a
// timing breakdown that sums to its total, an expectation value where one
// was asked for, a fidelity floor on MPS runs too wide for an oracle, and a
// route on auto-routed runs.
func checkReplies(w *workload, cl *class, out []*core.Result) error {
	want := cl.k
	if want == 0 {
		want = 1
	}
	if len(out) != want {
		return fmt.Errorf("%s: %d results for %d elements", cl.name, len(out), want)
	}
	for _, r := range out {
		if r == nil {
			return fmt.Errorf("%s: missing result", cl.name)
		}
		shots := cl.shots
		if shots == 0 {
			shots = 1024 // the engines' default when a request names none
		}
		total := 0
		for key, n := range r.Counts {
			if len(key) != cl.circ.NQubits {
				return fmt.Errorf("%s: key %q is not %d bits wide", cl.name, key, cl.circ.NQubits)
			}
			total += n
		}
		// An analytic reply may omit the histogram; when present it must be whole.
		if total != shots && !(cl.analytic() && total == 0) {
			return fmt.Errorf("%s: counts sum to %d, want %d", cl.name, total, shots)
		}
		if d := math.Abs(r.Timings.Sum() - r.Timings.TotalMS); d > 1e-9*math.Max(1, r.Timings.TotalMS) {
			return fmt.Errorf("%s: timings sum %.9f != total %.9f", cl.name, r.Timings.Sum(), r.Timings.TotalMS)
		}
		if cl.obs != nil && r.ExpVal == nil {
			return fmt.Errorf("%s: no expectation value", cl.name)
		}
		if cl.sibling != nil {
			if f, ok := r.Extra["mps_fidelity"]; !ok || f < minFidelity {
				return fmt.Errorf("%s: mps_fidelity %v below %v", cl.name, f, minFidelity)
			}
		}
		if w.backend == "auto" && r.Route == "" {
			return fmt.Errorf("%s: auto-routed reply carries no route", cl.name)
		}
	}
	return nil
}

const (
	minFidelity = 0.999
	// solveGapFrac is how far above the brute-force optimum a solve's best
	// sampled energy may be. 3 of 1500 seeded solves at this size and budget
	// miss the optimum, by up to 20 %, so a tighter check fails healthy runs;
	// qaoa.gap_to_optimum reports the actual gap.
	solveGapFrac = 0.5
)

// optimum brute-forces the QUBO's minimum energy (n = 12: 4096 assignments).
func optimum(q *qubo.QUBO) float64 {
	best := math.Inf(1)
	bits := make([]int, q.N)
	for x := 0; x < 1<<uint(q.N); x++ {
		for i := range bits {
			bits[i] = (x >> uint(i)) & 1
		}
		if e := q.Energy(bits); e < best {
			best = e
		}
	}
	return best
}

// solve runs one full variational loop over the connection and checks that
// it spent exactly its budget and landed near the optimum.
func (c *conn) solve(in *opInput) (*qaoa.Result, error) {
	opt := in.Optimum
	q := &qubo.QUBO{N: len(in.QUBO), Q: in.QUBO}
	runner := c.tr.runner(c.front)
	start := time.Now()
	res, err := qaoa.Solve(q, runner, qaoa.Options{P: qaoaDepth, MaxEvals: solveEvals, ExactExpectation: true, Seed: in.Seeds[0]})
	if err != nil {
		return nil, fmt.Errorf("solve: %w", err)
	}
	c.tr.solved(runner, res, opt, time.Since(start))
	if res.Evals != solveEvals {
		return res, fmt.Errorf("solve: %d evals, want %d", res.Evals, solveEvals)
	}
	if gap := res.Energy - opt; gap > solveGapFrac*math.Abs(opt) {
		return res, fmt.Errorf("solve: energy %.4f is more than %.0f%% above the optimum %.4f", res.Energy, 100*solveGapFrac, opt)
	}
	return res, nil
}

// op executes op i: one solve, or one round over the workload's classes.
func (c *conn) op(in *inputs, i int) error {
	oi := &in.Ops[i]
	if c.w.solve {
		_, err := c.solve(oi)
		return err
	}
	for ci := range in.Classes {
		var b []core.Bindings
		if oi.Bindings != nil {
			b = oi.Bindings[ci]
		}
		if _, err := c.request(&in.Classes[ci], oi.Seeds[ci], b); err != nil {
			return err
		}
	}
	return nil
}

// warm issues one untimed op so parse/plan caches, arenas and first-touch
// pages are paid for in set-up. With a hot set every entry is filled, and
// the fills are kept so the timed replays can be compared with them.
func (c *conn) warm(in *inputs) error {
	n := 1
	if c.w.hotSet > 0 {
		n = c.w.hotSet
		c.filling = true
		defer func() { c.filling = false }()
	}
	for i := 0; i < n && i < len(in.Ops); i++ {
		if err := c.op(in, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// groups is how many groups of consecutive ops a timed phase is cut into.
// Rates and CPU costs are reported as the median over the groups, so a burst
// of interference from outside the benchmark that slows a few groups does
// not move the reported value.
const groups = 10

// mark is the state at a group boundary.
type mark struct {
	at        time.Duration // since the phase started
	good      int           // validated ops so far
	clientCPU float64       // ms, this process
	serverCPU float64       // ms, the daemon
}

// timed is the outcome of one closed-loop phase.
type timed struct {
	start     time.Time
	latMS     []float64 // latency of each validated op
	latGroup  []int     // the group (0-based) each of those ops completed in
	marks     []mark    // the start, then one per completed group
	speed     []float64 // the machine's speed factor in each group (calibrate); nil = 1
	attempted int
	failed    int
	wall      time.Duration
	firstErr  error
}

// cpuProbe reads the CPU time (ms) this process and the daemon have used.
type cpuProbe func() (client, server float64, err error)

// runOps drives ops [from, from+n) closed-loop: each client takes the next
// op index as soon as its previous op returned. No op starts after limit has
// elapsed (a guard for a badly regressed program; it does not bind at the
// sized op count), and ops not started are not counted as attempted. probe
// (optional) is read at every group boundary; onOp (optional) sees every
// validated op.
func runOps(conns []*conn, in *inputs, from, n int, limit time.Duration, probe cpuProbe, onOp func(client, i int, start time.Time, wall time.Duration)) (timed, error) {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		out      timed
		wg       sync.WaitGroup
		probeErr error
	)
	start := time.Now()
	out.start = start
	// addMark runs with mu held (or before the clients start).
	addMark := func() {
		m := mark{at: time.Since(start), good: len(out.latMS)}
		if probe != nil {
			var err error
			if m.clientCPU, m.serverCPU, err = probe(); err != nil && probeErr == nil {
				probeErr = err
			}
		}
		out.marks = append(out.marks, m)
	}
	addMark()
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n || time.Since(start) > limit {
					return
				}
				t0 := time.Now()
				err := c.op(in, from+k)
				wall := time.Since(t0)
				mu.Lock()
				out.attempted++
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("op %d: %w", from+k, err)
					}
				} else {
					out.latMS = append(out.latMS, ms(wall))
					out.latGroup = append(out.latGroup, min(len(out.marks), groups)-1)
				}
				if g := len(out.marks); g <= groups && out.attempted == g*n/groups {
					addMark()
				}
				mu.Unlock()
				if onOp != nil && err == nil {
					onOp(ci, from+k, t0, wall)
				}
			}
		}(ci, c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out, probeErr
}

// speedOf is the machine's speed factor during group g (0-based); 1 when
// the phase was not calibrated.
func (t *timed) speedOf(g int) float64 {
	if g < len(t.speed) {
		return t.speed[g]
	}
	return 1
}

// perGroup applies f to every pair of adjacent marks that holds at least
// one validated op; speed is the group's speed factor.
func (t *timed) perGroup(f func(prev, cur mark, ops, speed float64) float64) []float64 {
	var out []float64
	for i := 1; i < len(t.marks); i++ {
		if ops := t.marks[i].good - t.marks[i-1].good; ops > 0 {
			out = append(out, f(t.marks[i-1], t.marks[i], float64(ops), t.speedOf(i-1)))
		}
	}
	return out
}

// groupRates is the op rate (op/s) of each group at the reference speed.
func (t *timed) groupRates() []float64 {
	return t.perGroup(func(p, c mark, ops, speed float64) float64 {
		return ratio(ops, (c.at-p.at).Seconds()) * speed
	})
}

// latencies is the latency (ms) of each validated op at the reference
// speed, sorted.
func (t *timed) latencies() []float64 {
	out := make([]float64, len(t.latMS))
	for i, l := range t.latMS {
		out[i] = l
		if i < len(t.latGroup) {
			out[i] = l / t.speedOf(t.latGroup[i])
		}
	}
	sort.Float64s(out)
	return out
}

// calibrate takes the speed factor of every group from c.
func (t *timed) calibrate(c *calibrator) {
	t.speed = nil
	for i := 1; i < len(t.marks); i++ {
		t.speed = append(t.speed, c.speed(t.start.Add(t.marks[i-1].at), t.start.Add(t.marks[i].at)))
	}
}

// firstErr turns the per-element error strings of a batch reply into an error.
func firstErr(errs []string) error {
	for i, e := range errs {
		if e != "" {
			return fmt.Errorf("element %d: %s", i, e)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// tailPercentile is the highest of the reported percentiles (50, 90, 99)
// that still has at least ten samples beyond it.
func tailPercentile(samples int) float64 {
	for _, p := range []float64{99, 90} {
		if float64(samples)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the inter-quartile range of v as a share of its median, by
// the exclusive method (the one Python's statistics.quantiles uses); 0 with
// fewer than minRuns values.
func iqrShare(v []float64) float64 {
	n := len(v)
	if n < minRuns {
		return 0
	}
	s := sortedCopy(v)
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	if m := median(s); m != 0 {
		return (at(0.75) - at(0.25)) / m
	}
	return 0
}
