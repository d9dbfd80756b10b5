package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qfw/internal/core"
	"qfw/internal/qaoa"
	"qfw/internal/qubo"
	"qfw/internal/serve"
	"qfw/internal/workloads"
)

// serveRequest is one item of the load generator's hot set: a submission the
// clients keep re-issuing (the repeated-submission traffic the serving layer
// is built for).
type serveRequest struct {
	spec     core.CircuitSpec
	bindings []core.Bindings
	opts     core.RunOptions
}

// serveHotSet builds the request mix: analytic QAOA expectation queries
// (cacheable across seeds and coalescible into one batch) interleaved with
// seeded GHZ sampling runs (exact-hit cacheable, never coalesced — the seed
// schedule is load-bearing). Together they exercise both cache classes and
// the admission rule.
func (h *Harness) serveHotSet() ([]serveRequest, error) {
	n := 10
	if h.Quick {
		n = 8
	}
	rng := rand.New(rand.NewSource(h.Seed + 83))
	q := qubo.Random(n, 0.5, 1.0, rng)
	ham, _ := q.CostHamiltonian()
	ansatz := qaoa.BuildAnsatz(ham, 2)
	pspec, err := core.SpecFromParametric(ansatz)
	if err != nil {
		return nil, err
	}
	obs := qaoa.ObservableFromQUBO(q)

	ghz, err := core.SpecFromCircuit(workloads.GHZ(n + 2))
	if err != nil {
		return nil, err
	}

	var hot []serveRequest
	prng := rand.New(rand.NewSource(h.Seed + 19))
	for i := 0; i < 4; i++ {
		params := make([]float64, 4) // p=2: two gammas, two betas
		for j := range params {
			params[j] = 0.1 + 0.8*prng.Float64()
		}
		hot = append(hot, serveRequest{
			spec:     pspec,
			bindings: []core.Bindings{qaoa.BindParams(params)},
			opts:     core.RunOptions{Subbackend: "statevector", Observable: obs},
		})
		hot = append(hot, serveRequest{
			spec: ghz,
			opts: core.RunOptions{Shots: h.Shots, Seed: h.Seed + int64(i), Subbackend: "statevector"},
		})
	}
	return hot, nil
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

// RunServeAblation measures the serving-layer ablation of the catalog: the
// same repeated-submission workload (analytic QAOA queries + seeded GHZ
// sampling, a hot set the clients cycle through) pushed through four serving
// configurations — cache+coalescing, cache only, coalescing only, and
// neither — at increasing concurrent client counts. Every configuration
// fronts the same aer QPM, so only the serving policy differs. A final
// bounded-queue probe overloads a deliberately tiny configuration and counts
// the typed load-shed rejections.
func (h *Harness) RunServeAblation() (*Experiment, error) {
	var spec AblationSpec
	for _, ab := range AblationCatalog {
		if ab.Name == "serving-layer" {
			spec = ab
		}
	}
	exp := &Experiment{
		ID:    "ablation-serve",
		Title: "Multi-tenant serving layer: cache and coalescing toggled under concurrent load (" + spec.Describe + ")",
		Notes: "X axis is the concurrent client count; all series replay the identical hot-set workload against the same aer QPM.",
	}
	qpm := h.Session.QPM("aer")
	if qpm == nil {
		return nil, fmt.Errorf("bench: session has no aer QPM")
	}
	hot, err := h.serveHotSet()
	if err != nil {
		return nil, err
	}
	reqs := 128
	if h.Quick {
		reqs = 64
	}

	window := 2 * time.Millisecond
	configs := []struct {
		label string
		cfg   serve.Config
	}{
		{"cache+coalesce", serve.Config{Window: window}},
		{"cache only", serve.Config{}},
		{"coalesce only", serve.Config{CacheCap: -1, Window: window}},
		{"no cache", serve.Config{CacheCap: -1}},
	}
	tput := map[string]map[int]float64{}
	p99 := map[string]map[int]float64{}
	for _, c := range configs {
		series := Series{Label: c.label}
		tput[c.label] = map[int]float64{}
		p99[c.label] = map[int]float64{}
		for _, clients := range spec.Ks {
			srv := serve.New(qpm, c.cfg, h.Session.Rec)
			// Warm every path once before timing: fills the cache where
			// enabled and the compiled-spec caches everywhere, so the
			// configurations differ only in serving policy.
			for _, req := range hot {
				if _, _, _, err := srv.Exec("warmup", req.spec, req.bindings, req.opts); err != nil {
					srv.Close()
					return nil, fmt.Errorf("%s warmup: %w", c.label, err)
				}
			}
			pt, err := serveLoad(srv, hot, clients, reqs)
			srv.Close()
			if err != nil {
				return nil, fmt.Errorf("%s c=%d: %w", c.label, clients, err)
			}
			tput[c.label][clients] = pt.Throughput
			p99[c.label][clients] = pt.P99MS
			series.Points = append(series.Points, pt)
		}
		exp.Series = append(exp.Series, series)
	}

	shedPt, err := h.runShedProbe(qpm, hot)
	if err != nil {
		return nil, err
	}
	exp.Series = append(exp.Series, Series{Label: "load-shed probe", Points: []Point{shedPt}})

	maxC := spec.Ks[len(spec.Ks)-1]
	minC := spec.Ks[0]
	var notes string
	if off := tput["no cache"][maxC]; off > 0 {
		notes += fmt.Sprintf("result cache vs no-cache throughput at %d clients: %.1fx with coalescing, %.1fx without (each closed-loop client is its own tenant and merging is per tenant, so this traffic never merges). ",
			maxC, tput["cache+coalesce"][maxC]/off, tput["cache only"][maxC]/off)
	}
	for _, clients := range spec.Ks {
		if off := tput["no cache"][clients]; off > 0 {
			notes += fmt.Sprintf("coalesce-only vs no-cache throughput at %d clients: %.2fx. ", clients, tput["coalesce only"][clients]/off)
		}
	}
	if base := p99["cache+coalesce"][minC]; base > 0 {
		notes += fmt.Sprintf("cached-mix p99 at %d clients is %.2fx the %d-client p99. ",
			maxC, p99["cache+coalesce"][maxC]/base, minC)
	}
	notes += fmt.Sprintf("load-shed probe: %d of %d over-cap submissions rejected with typed ErrOverloaded.",
		shedPt.Shed, shedPt.Evals)
	exp.Notes += " " + notes
	return exp, nil
}

// runShedProbe verifies overload is shed with the typed error rather than
// queued without bound: it pins the single dispatch slot of a deliberately
// tiny configuration with a large circuit, fills the four-element queue, and
// then submits over the cap. The returned point records over-cap attempts
// (Evals) and typed rejections (Shed).
func (h *Harness) runShedProbe(qpm *core.QPM, hot []serveRequest) (Point, error) {
	const queueCap = 4
	srv := serve.New(qpm, serve.Config{CacheCap: -1, QueueCap: queueCap, Quota: 1 << 20, Inflight: 1}, h.Session.Rec)
	defer srv.Close()

	blockSpec, err := core.SpecFromCircuit(workloads.GHZ(20))
	if err != nil {
		return Point{}, err
	}
	unseeded := func(i int) (core.CircuitSpec, []core.Bindings, core.RunOptions) {
		req := hot[i%len(hot)]
		opts := req.opts
		opts.Seed = 0 // unseeded: uncacheable, so every accept executes
		return req.spec, req.bindings, opts
	}

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, queueCap+1)
	submit := func(tenant string, spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) {
		defer wg.Done()
		if _, _, _, err := srv.Exec(tenant, spec, bindings, opts); err != nil {
			errc <- fmt.Errorf("probe %s: %w", tenant, err)
		}
	}

	// Pin the only dispatch slot: a 20-qubit statevector run holds it for
	// tens of milliseconds, long enough to fill and overflow the queue.
	wg.Add(1)
	go submit("blocker", blockSpec, nil, core.RunOptions{Shots: 64, Subbackend: "statevector"})
	if err := waitStats(srv, "blocker dispatch", func(st serve.Stats) bool {
		return st.Tenants["blocker"].Outstanding == 1 && st.QueueDepth == 0
	}); err != nil {
		return Point{}, err
	}
	for i := 0; i < queueCap; i++ {
		spec, bindings, opts := unseeded(i)
		wg.Add(1)
		go submit(fmt.Sprintf("fill-%d", i), spec, bindings, opts)
	}
	if err := waitStats(srv, "queue fill", func(st serve.Stats) bool {
		return st.QueueDepth == queueCap
	}); err != nil {
		return Point{}, err
	}

	// The queue is at cap and the slot is held: every further submission
	// must shed, and the rejection must stay typed.
	attempts := 2 * queueCap
	shed := 0
	for i := 0; i < attempts; i++ {
		spec, bindings, opts := unseeded(i)
		_, _, _, err := srv.Exec("probe", spec, bindings, opts)
		switch {
		case err == nil:
			return Point{}, fmt.Errorf("bench: probe submission %d admitted over a full queue", i)
		case !serve.IsOverloaded(err):
			return Point{}, fmt.Errorf("bench: untyped overload error: %w", err)
		}
		shed++
	}
	wg.Wait()
	select {
	case err := <-errc:
		return Point{}, err
	default:
	}
	return Point{
		X:         attempts,
		Placement: fmt.Sprintf("cap=%d slot=held", queueCap),
		RuntimeMS: float64(time.Since(start)) / float64(time.Millisecond),
		Evals:     attempts,
		Shed:      shed,
	}, nil
}

// waitStats polls a serving layer's stats until cond holds.
func waitStats(srv *serve.Server, what string, cond func(serve.Stats) bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond(srv.Stats()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s never reached (stats %+v)", what, srv.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}
