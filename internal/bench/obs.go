package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"qfw/internal/core"
	"qfw/internal/serve"
	"qfw/internal/trace"
	"qfw/internal/workloads"
)

// serveRequest is one item of the load generator's hot set: a submission the
// clients keep re-issuing through the serving layer.
type serveRequest struct {
	spec     core.CircuitSpec
	bindings []core.Bindings
	opts     core.RunOptions
}

// obsHotSet builds the overhead-measurement workload: unseeded sampled
// TFIM evolutions deep enough that one request costs milliseconds of real
// simulation. The fixed per-request instrumentation cost (a handful of
// spans, counters, and histogram observations) is priced against realistic
// executions rather than against no-op requests where scheduler jitter
// swamps the measurement.
func (h *Harness) obsHotSet() ([]serveRequest, error) {
	n, depth := 14, 12
	if h.Quick {
		n, depth = 12, 8
	}
	var hot []serveRequest
	for i := 0; i < 4; i++ {
		circ := workloads.TFIM(n, depth, 0.4+0.1*float64(i), 1.0)
		spec, err := core.SpecFromCircuit(circ)
		if err != nil {
			return nil, err
		}
		hot = append(hot, serveRequest{
			spec: spec,
			opts: core.RunOptions{Shots: h.Shots, Subbackend: "statevector"},
		})
	}
	return hot, nil
}

// RunObsAblation measures the cost of the production observability layer:
// the serving-layer hot set is driven with the result cache disabled (so
// every request actually executes and every span/metric site fires) once
// with the telemetry core enabled and once with it switched off the way
// QFW_OBS=off does. Reps interleave on/off pairs so machine drift cancels
// instead of biasing one side, and the aggregate overhead lands in Notes
// (and the acceptance gate: instrumentation must stay within a few percent
// of the disabled path).
func (h *Harness) RunObsAblation() (*Experiment, error) {
	var spec AblationSpec
	for _, ab := range AblationCatalog {
		if ab.Name == "observability" {
			spec = ab
		}
	}
	exp := &Experiment{
		ID:    "ablation-obs",
		Title: "Observability overhead: telemetry on vs QFW_OBS=off under uncached load (" + spec.Describe + ")",
		Notes: "X axis is the paired-rep index; both series replay the identical hot-set workload against the same aer QPM with caching disabled.",
	}
	qpm := h.Session.QPM("aer")
	if qpm == nil {
		return nil, fmt.Errorf("bench: session has no aer QPM")
	}
	hot, err := h.obsHotSet()
	if err != nil {
		return nil, err
	}
	clients := 1
	if len(spec.Ks) > 0 {
		clients = spec.Ks[0]
	}
	// The gate statistic is the per-side latency floor, so more paired reps
	// directly tighten it: each extra pair is another draw of the minimum on
	// both sides, and the floors converge toward the true per-request cost.
	reqs := 48
	pairs := 24
	if h.Quick {
		reqs = 24
		pairs = 12
	}

	// Cache off: a hit path would serve most requests from memory and hide
	// the per-execution instrumentation this ablation exists to price.
	srv := serve.New(qpm, serve.Config{CacheCap: -1}, h.Session.Rec)
	defer srv.Close()
	defer trace.SetEnabled(true)
	for _, req := range hot {
		if _, _, _, err := srv.Exec("warmup", req.spec, req.bindings, req.opts); err != nil {
			return nil, fmt.Errorf("obs warmup: %w", err)
		}
	}

	on := Series{Label: "instrumented"}
	off := Series{Label: "QFW_OBS=off"}
	var medsOn, medsOff []float64
	for rep := 0; rep < pairs; rep++ {
		// Alternate which side runs first within the pair so ordering
		// effects (cache warmth, frequency scaling) cancel across reps.
		order := []bool{true, false}
		if rep%2 == 1 {
			order = []bool{false, true}
		}
		for _, enabled := range order {
			// Equalize allocator state so a GC pause inherited from the
			// previous half-pair cannot masquerade as telemetry overhead.
			runtime.GC()
			trace.SetEnabled(enabled)
			pt, err := serveLoad(srv, hot, clients, reqs)
			trace.SetEnabled(true)
			if err != nil {
				return nil, fmt.Errorf("obs rep %d (enabled=%v): %w", rep, enabled, err)
			}
			pt.X = rep
			pt.Placement = fmt.Sprintf("rep=%d", rep)
			if enabled {
				medsOn = append(medsOn, pt.MinMS)
				on.Points = append(on.Points, pt)
			} else {
				medsOff = append(medsOff, pt.MinMS)
				off.Points = append(off.Points, pt)
			}
		}
	}
	exp.Series = append(exp.Series, on, off)

	// The overhead gate compares the latency floor (fastest request) of
	// each side. Scheduler and GC noise is strictly additive, so the floor
	// converges on each side's true per-request cost — a systematic
	// instrumentation cost would survive in the floor, while rep-to-rep
	// jitter (which flips sign between runs) does not.
	bestOn := minOf(medsOn)
	bestOff := minOf(medsOff)
	if bestOff > 0 {
		exp.Notes += fmt.Sprintf(" Floor request latency %.3f ms instrumented vs %.3f ms disabled: overhead_pct=%.2f.",
			bestOn, bestOff, 100*(bestOn-bestOff)/bestOff)
	}
	st := h.Session.Rec.Stats()
	exp.Notes += fmt.Sprintf(" Span ring after the run: %d recorded, %d retained, %d dropped (cap %d).",
		st.Recorded, st.Retained, st.Dropped, st.Capacity)
	return exp, nil
}

// minOf returns the smallest sample (0 for an empty slice).
func minOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, s := range samples[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// serveLoad drives one serving-layer configuration with `clients` concurrent
// clients, each cycling through the hot set `reqs` times, and reports the
// latency distribution and sustained throughput.
func serveLoad(srv *serve.Server, hot []serveRequest, clients, reqs int) (Point, error) {
	latencies := make([][]float64, clients)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%02d", c)
			lats := make([]float64, 0, reqs)
			for i := 0; i < reqs; i++ {
				// Clients start at staggered offsets so the instantaneous mix
				// stays heterogeneous.
				req := hot[(c+i)%len(hot)]
				t0 := time.Now()
				_, errs, _, err := srv.Exec(tenant, req.spec, req.bindings, req.opts)
				if err == nil {
					for _, e := range errs {
						if e != "" {
							err = fmt.Errorf("element error: %s", e)
							break
						}
					}
				}
				if err != nil {
					errc <- fmt.Errorf("client %d req %d: %w", c, i, err)
					return
				}
				lats = append(lats, float64(time.Since(t0))/float64(time.Millisecond))
			}
			latencies[c] = lats
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errc:
		return Point{}, err
	default:
	}

	var all []float64
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Float64s(all)
	mean, std := meanStd(all)
	return Point{
		X:          clients,
		Placement:  fmt.Sprintf("c=%d", clients),
		RuntimeMS:  mean,
		StdMS:      std,
		MinMS:      all[0],
		P50MS:      percentile(all, 50),
		P99MS:      percentile(all, 99),
		Throughput: float64(len(all)) / wall.Seconds(),
	}, nil
}

// percentile returns the p-th percentile (nearest-rank) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
