//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// setupReps is how many times a run sets the system up from nothing; the
// reported setup_s is the median, and the last set-up is the one measured.
const setupReps = 5

// minSetupSpan is the shortest stretch the set-up phase's speed factor is
// taken over.
const minSetupSpan = 2 * time.Second

// runner is one invocation: one workload, one seed.
type runner struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool

	mu      sync.Mutex
	daemons map[*daemon]bool // every daemon still running
}

func (r *runner) start(bin string, metrics bool) (*daemon, error) {
	d, err := startDaemon(bin, metrics)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.daemons == nil {
		r.daemons = map[*daemon]bool{}
	}
	r.daemons[d] = true
	r.mu.Unlock()
	return d, nil
}

func (r *runner) stop(d *daemon) {
	r.mu.Lock()
	live := r.daemons[d]
	delete(r.daemons, d)
	r.mu.Unlock()
	if live {
		d.stop()
	}
}

// cleanup stops whatever is still running; it is safe to call while run is
// still in flight on its goroutine (the signal and hard-stop paths).
func (r *runner) cleanup() {
	r.mu.Lock()
	ds := r.daemons
	r.daemons = nil
	r.mu.Unlock()
	for d := range ds {
		d.stop()
	}
}

// system is one set-up daemon with its connected, warmed clients.
type system struct {
	d     *daemon
	conns []*conn
}

func (s *system) close() {
	for _, c := range s.conns {
		c.rpc.Close()
	}
}

// setUp is what setup_s times: spawn qfwd, parse its endpoint, dial every
// client, and issue the untimed warm-up. via rewrites the address the
// clients dial (the traced run's counting proxy); nil dials the daemon.
func (r *runner) setUp(bin string, in *inputs, metrics bool, via func(addr string) (string, error)) (*system, time.Duration, error) {
	t0 := time.Now()
	d, err := r.start(bin, metrics)
	if err != nil {
		return nil, 0, err
	}
	s := &system{d: d}
	fail := func(err error) (*system, time.Duration, error) {
		s.close()
		r.stop(d)
		return nil, 0, err
	}
	addr := d.addr
	if via != nil {
		if addr, err = via(addr); err != nil {
			return fail(err)
		}
	}
	var fills map[string]string
	if r.w.hotSet > 0 {
		fills = map[string]string{}
	}
	for i := 0; i < r.w.clients; i++ {
		c, err := dial(r.w, addr, i)
		if err != nil {
			return fail(err)
		}
		c.fills = fills
		s.conns = append(s.conns, c)
	}
	if err := s.conns[0].warm(in); err != nil {
		return fail(err)
	}
	return s, time.Since(t0), nil
}

// setUpMedian sets the system up setupReps times and keeps the last. It
// returns the median set-up time as the clock read it, and the span of the
// whole set-up phase.
func (r *runner) setUpMedian(bin string, in *inputs) (sys *system, rawS float64, from, to time.Time, err error) {
	var secs []float64
	from = time.Now()
	for i := 0; i < setupReps; i++ {
		s, dur, err := r.setUp(bin, in, false, nil)
		if err != nil {
			return nil, 0, from, to, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, dur.Seconds())
		if i < setupReps-1 {
			s.close()
			r.stop(s.d)
			continue
		}
		sys = s
	}
	return sys, median(secs), from, time.Now(), nil
}

func (r *runner) run() error {
	bin, err := buildQfwd()
	if err != nil {
		return err
	}
	nOps := r.w.opCount(r.seconds)
	in, err := r.w.generate(r.seed, nOps)
	if err != nil {
		return err
	}
	if r.traced {
		return r.runTraced(bin, in)
	}
	cal := startCalibrator()
	defer cal.stop()
	sys, rawSetupS, setupFrom, setupTo, err := r.setUpMedian(bin, in)
	if err != nil {
		return err
	}
	defer r.stop(sys.d)
	defer sys.close()
	rep := report{Workload: r.w.name, Seed: r.seed, Seconds: r.seconds, Ops: nOps, Machine: machineInfo(false)}
	verr := verify(sys.conns[0], in)

	runtime.GC() // the oracle's state vectors are garbage by now; collect them outside the timed phase
	t, err := runOps(sys.conns, in, 0, nOps, r.limit(), func() (float64, float64, error) {
		srv, err := sys.d.cpuMS()
		return selfCPUMS() - cal.usedMS(), srv, err
	}, nil)
	if err != nil {
		return err
	}
	rss, err := sys.d.peakRSSMiB()
	if err != nil {
		return err
	}

	if verr == nil {
		verr = t.firstErr
	}
	if verr != nil {
		rep.Error = verr.Error()
		fmt.Fprintln(os.Stderr, "benchmark:", verr)
	}
	good := len(t.latMS)
	if good == 0 {
		return fmt.Errorf("no op of %s succeeded: %v", r.w.name, verr)
	}
	rep.Samples = good
	raw := endToEnd(&t, rawSetupS, rss)
	t.calibrate(cal)
	// The five set-ups of a light workload are over within one calibrator
	// period; the machine's speed does not change that fast, so the factor
	// is taken over at least minSetupSpan from their start.
	if setupTo.Sub(setupFrom) < minSetupSpan {
		setupTo = setupFrom.Add(minSetupSpan)
	}
	setupS := rawSetupS / cal.speed(setupFrom, setupTo)
	rep.Metrics = endToEnd(&t, setupS, rss)
	rep.Segments, rep.Speed = t.groupRates(), t.speed
	rep.Extra = map[string]metric{
		"fail_ratio":      {float64(t.failed) / float64(t.attempted), "ratio"},
		"timed_wall_s":    {t.wall.Seconds(), "s"},
		"segment_spread":  {iqrShare(rep.Segments), "ratio"},
		"tail_percentile": {tailPercentile(good), "pct"},
		"machine_speed":   {median(t.speed), "ratio"},
	}
	for name, m := range raw {
		if name != "server_peak_rss_mb" { // memory does not move with the machine's speed
			rep.Extra["raw_"+name] = m
		}
	}
	if tailPercentile(good) >= 99 {
		rep.Extra["latency_p99_ms"] = metric{percentile(t.latencies(), 99), "ms"}
	}
	// A run the time guard cut short did less work but none of it wrong; the
	// report says so, and a run with too few samples for its percentiles is
	// not a measurement at all.
	if t.attempted < nOps {
		rep.Extra["truncated_ops"] = metric{float64(nOps - t.attempted), "count"}
		if good < minOps {
			return fmt.Errorf("%s: only %d ops within the %s time guard", r.w.name, good, r.limit())
		}
	}
	return emit(rep, result{
		Correct:   verr == nil && t.failed == 0,
		Attempted: t.attempted, Failed: t.failed, Metrics: rep.Metrics,
	})
}

// limit is the time guard of a timed phase: well past the sized length, so
// it only binds when the program has regressed badly.
func (r *runner) limit() time.Duration { return 2 * time.Duration(r.seconds) * time.Second }

// endToEnd reduces a timed phase to the end-to-end metrics of
// BENCHMARK.json. The rate and the two CPU costs are medians over the
// phase's groups; the latencies are percentiles over all its ops. Every
// time is at the reference speed once the phase has been calibrated.
func endToEnd(t *timed, setupS, rssMiB float64) map[string]metric {
	lat := t.latencies()
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"ops_per_s":      {median(t.groupRates()), "op/s"},
		"latency_p50_ms": {percentile(lat, 50), "ms"},
		"latency_p90_ms": {percentile(lat, 90), "ms"},
		"client_cpu_ms_per_op": {median(t.perGroup(func(p, c mark, ops, speed float64) float64 {
			return (c.clientCPU - p.clientCPU) / ops / speed
		})), "ms"},
		"server_cpu_ms_per_op": {median(t.perGroup(func(p, c mark, ops, speed float64) float64 {
			return (c.serverCPU - p.serverCPU) / ops / speed
		})), "ms"},
		"server_peak_rss_mb": {rssMiB, "MiB"},
	}
}
