// Package serve is the multi-tenant serving layer between the DEFw RPC
// surface and a backend QPM: the piece that turns the single-job demo
// daemon into a traffic-bearing service. Two mechanisms make repeated
// traffic fast and keep tenants isolated:
//
//   - a content-addressed result cache (exact-hit replay of deterministic
//     seeded runs, expectation-value memoization for analytic queries), so
//     repeats are served from memory;
//   - a weighted fair-share scheduler (stride scheduling over per-tenant
//     FIFO queues) with per-tenant quotas and bounded queues that shed load
//     with a typed ErrOverloaded instead of growing without bound.
//
// One submission in, one QPM batch out: a submission's cache misses form
// one unit, which dispatches as a single QPM.ExecBatch as soon as the
// scheduler picks it and a dispatch slot is free.
//
// Queue-depth and utilization telemetry rides the session's trace.Recorder
// next to the execution spans.
package serve

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/core"
	"qfw/internal/defw"
	"qfw/internal/trace"
)

// ErrOverloaded is the typed load-shedding error: the submission was
// rejected because a queue bound or tenant quota was hit. Clients back off
// and retry instead of growing the server's queues without bound.
var ErrOverloaded = errors.New("serve: overloaded")

// IsOverloaded detects ErrOverloaded even after the error has crossed an
// RPC boundary and been flattened to a string.
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	return strings.Contains(err.Error(), ErrOverloaded.Error())
}

// retryAfterFor sizes the backoff hint a shed carries: deeper queues mean
// longer waits before capacity frees, capped at a quarter second.
func retryAfterFor(depth int) time.Duration {
	d := time.Duration(1+depth) * time.Millisecond
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// RetryAfterHint extracts the retry_after_ms hint a shed error carries.
// It works on flattened client-side errors (the hint rides in the message
// exactly so it survives the RPC boundary).
func RetryAfterHint(err error) (time.Duration, bool) {
	if err == nil {
		return 0, false
	}
	msg := err.Error()
	i := strings.Index(msg, "retry_after_ms=")
	if i < 0 {
		return 0, false
	}
	var ms int64
	if _, serr := fmt.Sscanf(msg[i:], "retry_after_ms=%d", &ms); serr != nil || ms < 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// ServiceName returns the DEFw service a backend's serving layer registers
// under (beside the raw "qpm.<backend>" service).
func ServiceName(backend string) string { return "serve." + backend }

// Config tunes one serving layer instance. The zero value gets sensible
// production defaults; tests shrink the bounds to exercise the shedding and
// eviction paths.
type Config struct {
	// CacheCap bounds the result cache (entries). 0 means the default
	// (4096); negative disables caching.
	CacheCap int
	// Window is inert. It bounded how long a submission could wait to merge
	// with same-spec arrivals of its tenant; that merging was removed because
	// no measured traffic ever merged (each submission now dispatches alone).
	// The field stays so existing callers keep compiling.
	Window time.Duration
	// QueueCap bounds the total queued elements across tenants; submissions
	// over the bound shed with ErrOverloaded (default 1024).
	QueueCap int
	// Quota is the default per-tenant bound on outstanding (queued +
	// dispatched) elements (default QueueCap). SetTenant overrides it.
	Quota int
	// Inflight bounds concurrently dispatched QPM batches (default: the
	// QPM's worker count).
	Inflight int
}

func (c Config) withDefaults(workers int) Config {
	if c.CacheCap == 0 {
		c.CacheCap = 4096
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Quota <= 0 {
		c.Quota = c.QueueCap
	}
	if c.Inflight <= 0 {
		c.Inflight = workers
	}
	return c
}

// elem is one circuit execution of a submission that missed the cache.
type elem struct {
	idx      int // position in the submission
	binding  core.Bindings
	key      string  // cache key; "" when the element is not cacheable
	lookupMS float64 // cache-lookup cost carried into the result's Timings

	// Outcome, written by dispatch (or Close) before the unit's done closes.
	res *core.Result
	err string
}

// unit is one submission's cache misses: a spec plus ordered elements that
// travel as a single QPM batch.
type unit struct {
	tenant string
	spec   core.CircuitSpec
	opts   core.RunOptions
	elems  []*elem
	enq    time.Time
	done   chan struct{} // closed once every element has its outcome
}

type tenantQueue struct {
	name        string
	weight      int
	quota       int
	pass        float64 // stride-scheduling virtual time
	units       []*unit
	outstanding int // queued + dispatched elements
	served      int64
	shed        int64
}

// Server is the serving layer of one backend QPM.
type Server struct {
	backend string
	qpm     *core.QPM
	caps    core.Capabilities
	cfg     Config
	cache   *resultCache // nil when disabled
	rec     *trace.Recorder

	mu        sync.Mutex
	tenants   map[string]*tenantQueue
	queued    int // queued elements across tenants
	peakDepth int
	vtime     float64 // virtual time: pass of the last dispatched tenant
	draining  bool
	closed    bool

	wake  chan struct{}
	stopc chan struct{}
	sem   chan struct{} // bounds concurrent dispatched batches
	wg    sync.WaitGroup

	start    time.Time
	hits     atomic.Int64
	misses   atomic.Int64
	shedded  atomic.Int64
	served   atomic.Int64
	groups   atomic.Int64
	grpElems atomic.Int64
	busyNS   atomic.Int64

	// Resolved metric handles (shared registry, labeled by backend).
	mHits, mMisses, mShed, mServed *trace.Counter
	hReq                           *trace.Histogram
	gDepth                         *trace.Gauge
}

// New builds and starts the serving layer over a QPM. rec may be nil.
func New(qpm *core.QPM, cfg Config, rec *trace.Recorder) *Server {
	if rec == nil {
		rec = qpm.Recorder()
	}
	cfg = cfg.withDefaults(qpm.Workers())
	s := &Server{
		backend: qpm.Backend(),
		qpm:     qpm,
		caps:    qpm.Capabilities(),
		cfg:     cfg,
		rec:     rec,
		tenants: make(map[string]*tenantQueue),
		wake:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
		sem:     make(chan struct{}, cfg.Inflight),
		start:   time.Now(),
	}
	if cfg.CacheCap > 0 {
		s.cache = newResultCache(cfg.CacheCap)
	}
	met := rec.Metrics()
	s.mHits = met.Counter(trace.LabeledName("qfw_serve_cache_hits_total", "backend", s.backend))
	s.mMisses = met.Counter(trace.LabeledName("qfw_serve_cache_misses_total", "backend", s.backend))
	s.mShed = met.Counter(trace.LabeledName("qfw_serve_shed_total", "backend", s.backend))
	s.mServed = met.Counter(trace.LabeledName("qfw_serve_served_total", "backend", s.backend))
	s.hReq = met.Histogram(trace.LabeledName("qfw_serve_request_ms", "backend", s.backend))
	s.gDepth = met.Gauge(trace.LabeledName("qfw_serve_queue_depth", "backend", s.backend))
	s.wg.Add(1)
	go s.dispatcher()
	return s
}

// Backend returns the backend this serving layer fronts.
func (s *Server) Backend() string { return s.backend }

// BusyNS returns the cumulative busy nanoseconds across the dispatch
// slots — the source a trace.UtilSampler turns into the serving layer's
// utilization time series.
func (s *Server) BusyNS() int64 { return s.busyNS.Load() }

// Slots returns the number of concurrent dispatch slots (the denominator
// of the utilization fraction).
func (s *Server) Slots() int { return s.cfg.Inflight }

// SetTenant configures a tenant's fair-share weight and outstanding-element
// quota (zero values keep the defaults).
func (s *Server) SetTenant(name string, weight, quota int) {
	s.mu.Lock()
	t := s.tenantLocked(name)
	if weight > 0 {
		t.weight = weight
	}
	if quota > 0 {
		t.quota = quota
	}
	s.mu.Unlock()
}

func (s *Server) tenantLocked(name string) *tenantQueue {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantQueue{name: name, weight: 1, quota: s.cfg.Quota}
		s.tenants[name] = t
	}
	return t
}

// ExecInfo summarizes how a submission was served.
type ExecInfo struct {
	CacheHits int `json:"cache_hits"`
}

// Exec runs one submission — a spec plus zero or more bindings — on behalf
// of a tenant and blocks until every element resolves. Results come back
// ordered with parallel per-element error strings ("" for success). The
// top-level error is non-nil only when the whole submission was rejected
// (draining, closed, bad spec, larger than the tenant can ever queue, or
// shed with ErrOverloaded).
func (s *Server) Exec(tenant string, spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]*core.Result, []string, ExecInfo, error) {
	var info ExecInfo
	if spec.QASM == "" {
		return nil, nil, info, fmt.Errorf("serve[%s]: empty circuit spec", s.backend)
	}
	if tenant == "" {
		tenant = "default"
	}
	reqStart := time.Now()
	single := len(bindings) <= 1
	if len(bindings) == 0 {
		bindings = []core.Bindings{nil}
	}
	k := len(bindings)

	clientSeeded := opts.Seed != 0
	analytic := opts.Shots == 0 && opts.Observable != nil
	replayable := s.caps.DeterministicSeeded

	elems := make([]*elem, k)
	for i := range bindings {
		e := &elem{idx: i, binding: bindings[i]}
		if replayable && (analytic || clientSeeded) && s.cache != nil {
			eo := opts
			if !single {
				// Element seeds follow the QPM batch schedule so serving a
				// batch is bit-identical to submitting it to the QPM directly.
				eo = opts.ForElement(i)
			}
			e.key = cacheKey(spec, bindings[i], eo, analytic)
		}
		elems[i] = e
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, info, fmt.Errorf("serve[%s]: closed", s.backend)
	}
	if s.draining {
		s.mu.Unlock()
		return nil, nil, info, fmt.Errorf("serve[%s]: %w", s.backend, core.ErrDraining)
	}
	t := s.tenantLocked(tenant)
	defer func() { s.hReq.Observe(float64(time.Since(reqStart)) / float64(time.Millisecond)) }()

	// Cache hits never need the queue.
	results := make([]*core.Result, k)
	errs := make([]string, k)
	var need []*elem
	for _, e := range elems {
		if e.key != "" {
			lookStart := time.Now()
			res, ok := s.cache.Get(e.key)
			lookEnd := time.Now()
			if ok {
				s.hits.Add(1)
				s.mHits.Inc()
				info.CacheHits++
				// A hit's entire cost is the lookup — key derivation, the
				// lock and the probe, all since the request arrived: report
				// it instead of a zeroed breakdown so clients can still
				// reconcile TotalMS.
				res.Timings.CacheLookupMS = float64(lookEnd.Sub(reqStart)) / float64(time.Millisecond)
				res.Timings.TotalMS = res.Timings.Sum()
				results[e.idx] = res
				continue
			}
			e.lookupMS = float64(lookEnd.Sub(lookStart)) / float64(time.Millisecond)
			s.misses.Add(1)
			s.mMisses.Inc()
		}
		need = append(need, e)
	}

	if len(need) > 0 && !analytic && len(need) < k {
		// A seed-scheduled batch recomputes whole or not at all: partial
		// replay would shift the remaining elements' dispatch indices (and
		// thus seeds). Hits already resolved above keep their replayed
		// results; the recomputed duplicates are dropped.
		need = elems
	}
	if len(need) == 0 {
		s.mu.Unlock()
		return results, errs, info, nil
	}

	var err error
	if bound := min(t.quota, s.cfg.QueueCap); len(need) > bound {
		// No amount of waiting admits this submission, so it is refused
		// plainly: not counted as shed, and without a retry hint.
		err = fmt.Errorf("serve[%s]: submission needs %d executions but tenant %q may queue at most %d (quota %d, queue cap %d); split it",
			s.backend, len(need), tenant, bound, t.quota, s.cfg.QueueCap)
	} else if t.outstanding+len(need) > t.quota || s.queued+len(need) > s.cfg.QueueCap {
		t.shed += int64(len(need))
		s.shedded.Add(int64(len(need)))
		s.mShed.Add(int64(len(need)))
		err = fmt.Errorf("serve[%s]: %w: tenant %q has %d outstanding (quota %d), %d queued (cap %d); retry_after_ms=%d",
			s.backend, ErrOverloaded, tenant, t.outstanding, t.quota, s.queued, s.cfg.QueueCap,
			retryAfterFor(s.queued)/time.Millisecond)
	}
	if err != nil {
		s.mu.Unlock()
		for _, e := range need {
			if results[e.idx] == nil {
				errs[e.idx] = err.Error()
			}
		}
		return results, errs, info, err
	}

	u := &unit{tenant: t.name, spec: spec, opts: opts, elems: need, enq: time.Now(), done: make(chan struct{})}
	s.admitLocked(t, u)
	s.mu.Unlock()
	s.signal()

	<-u.done
	for _, e := range u.elems {
		if results[e.idx] == nil {
			results[e.idx], errs[e.idx] = e.res, e.err
		}
	}
	return results, errs, info, nil
}

// admitLocked queues u at the tail of its tenant's FIFO. Callers hold s.mu.
func (s *Server) admitLocked(t *tenantQueue, u *unit) {
	if len(t.units) == 0 && t.outstanding == 0 {
		// (Re)activation: start at the global virtual time so an idle tenant
		// cannot bank credit and starve the others when it returns.
		if t.pass < s.vtime {
			t.pass = s.vtime
		}
	}
	t.units = append(t.units, u)
	t.outstanding += len(u.elems)
	s.queued += len(u.elems)
	if s.queued > s.peakDepth {
		s.peakDepth = s.queued
	}
	s.gDepth.Record(float64(s.queued))
}

func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatcher is the scheduling loop: it waits for a free dispatch slot,
// then picks the head unit of the minimum-pass tenant (weighted stride
// scheduling), charges the tenant's virtual time, and dispatches it.
// Acquiring the slot before choosing keeps every queued unit eligible until
// the moment one can actually run, so scheduling decisions always see the
// full backlog.
func (s *Server) dispatcher() {
	defer s.wg.Done()
	for {
		select {
		case s.sem <- struct{}{}:
		case <-s.stopc:
			return
		}
		for {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			u := s.nextUnitLocked()
			s.mu.Unlock()
			if u != nil {
				s.wg.Add(1)
				go s.dispatch(u)
				break
			}
			select {
			case <-s.wake:
			case <-s.stopc:
				return
			}
		}
	}
}

// nextUnitLocked removes and returns the head unit of the minimum-pass
// tenant, or nil when nothing is queued.
func (s *Server) nextUnitLocked() *unit {
	var best *tenantQueue
	for _, t := range s.tenants {
		if len(t.units) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass || (t.pass == best.pass && t.name < best.name) {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	u := best.units[0]
	best.units = slices.Delete(best.units, 0, 1)
	s.vtime = best.pass
	best.pass += float64(len(u.elems)) / float64(best.weight)
	s.queued -= len(u.elems)
	s.gDepth.Record(float64(s.queued))
	return u
}

// dispatch runs one unit through the QPM as a single batch, records each
// element's outcome (populating the cache), and releases the submission.
func (s *Server) dispatch(u *unit) {
	defer s.wg.Done()
	defer func() { <-s.sem; s.signal() }()
	start := time.Now()
	finish := s.rec.Span("serve:dispatch:"+u.spec.Name, "serve/"+s.backend+"/"+u.tenant)
	bindings := make([]core.Bindings, len(u.elems))
	for i, e := range u.elems {
		bindings[i] = e.binding
	}
	// ExecBatch reaps the QPM batch whatever its outcome, so a long-lived
	// daemon's task table stays bounded.
	results, errs, err := s.qpm.ExecBatch(u.spec, bindings, u.opts)
	finish()
	s.busyNS.Add(int64(time.Since(start)))
	s.groups.Add(1)
	s.grpElems.Add(int64(len(u.elems)))

	s.mu.Lock()
	t := s.tenantLocked(u.tenant)
	t.outstanding -= len(u.elems)
	t.served += int64(len(u.elems))
	s.mu.Unlock()
	s.served.Add(int64(len(u.elems)))
	s.mServed.Add(int64(len(u.elems)))

	waitMS := float64(start.Sub(u.enq)) / float64(time.Millisecond)
	for i, e := range u.elems {
		switch {
		case err != nil:
			e.err = err.Error()
		case errs != nil && errs[i] != "":
			e.err = errs[i]
		default:
			e.res = results[i]
		}
		if e.res != nil {
			// Complete the breakdown with the serving-layer components the
			// QPM cannot see; TotalMS stays the exact component sum.
			e.res.Timings.CacheLookupMS = e.lookupMS
			e.res.Timings.CoalesceWaitMS = waitMS
			e.res.Timings.TotalMS = e.res.Timings.Sum()
			if e.key != "" {
				s.cache.Put(e.key, e.res)
			}
		}
	}
	close(u.done)
}

// Drain closes admission and waits up to timeout for every queued and
// dispatched element to resolve, reporting whether the layer fully drained.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		idle := s.queued == 0
		for _, t := range s.tenants {
			idle = idle && t.outstanding == 0
		}
		s.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the scheduler, failing still-queued units. Dispatched QPM
// batches are awaited so no dispatch goroutine outlives the server.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var orphans []*unit
	for _, t := range s.tenants {
		for _, u := range t.units {
			t.outstanding -= len(u.elems)
		}
		orphans = append(orphans, t.units...)
		t.units = nil
	}
	s.queued = 0
	s.mu.Unlock()
	close(s.stopc)
	msg := fmt.Sprintf("serve[%s]: closed", s.backend)
	for _, u := range orphans {
		for _, e := range u.elems {
			e.err = msg
		}
		close(u.done)
	}
	s.wg.Wait()
}

// TenantStats is one tenant's accounting snapshot.
type TenantStats struct {
	Weight      int   `json:"weight"`
	Quota       int   `json:"quota"`
	Served      int64 `json:"served"`
	Shed        int64 `json:"shed"`
	Outstanding int   `json:"outstanding"`
}

// Stats is the serving layer's observable state: cache effectiveness,
// dispatches, shedding, queue depths, and utilization of the dispatch
// slots since startup.
type Stats struct {
	Backend     string `json:"backend"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	CacheLen    int    `json:"cache_len"`
	// Deduped is always 0: identical concurrent submissions each execute
	// (single-flight deduplication was removed; no measured traffic reached
	// it). The field stays so existing readers keep compiling.
	Deduped        int64                  `json:"deduped"`
	Served         int64                  `json:"served"`
	Shed           int64                  `json:"shed"`
	DispatchGroups int64                  `json:"dispatch_groups"`
	DispatchElems  int64                  `json:"dispatch_elems"`
	QueueDepth     int                    `json:"queue_depth"`
	PeakQueueDepth int                    `json:"peak_queue_depth"`
	UtilizationPct float64                `json:"utilization_pct"`
	Tenants        map[string]TenantStats `json:"tenants,omitempty"`
}

// Stats snapshots the serving layer counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Backend:        s.backend,
		CacheHits:      s.hits.Load(),
		CacheMisses:    s.misses.Load(),
		Served:         s.served.Load(),
		Shed:           s.shedded.Load(),
		DispatchGroups: s.groups.Load(),
		DispatchElems:  s.grpElems.Load(),
		Tenants:        make(map[string]TenantStats),
	}
	if s.cache != nil {
		st.CacheLen = s.cache.Len()
	}
	wall := time.Since(s.start)
	if wall > 0 {
		st.UtilizationPct = 100 * float64(s.busyNS.Load()) / (float64(wall) * float64(s.cfg.Inflight))
	}
	s.mu.Lock()
	st.QueueDepth = s.queued
	st.PeakQueueDepth = s.peakDepth
	for name, t := range s.tenants {
		st.Tenants[name] = TenantStats{
			Weight: t.weight, Quota: t.quota,
			Served: t.served, Shed: t.shed, Outstanding: t.outstanding,
		}
	}
	s.mu.Unlock()
	return st
}

// ---- DEFw RPC surface -------------------------------------------------

// ExecReq is the payload of the "exec" method: one tenant-tagged
// submission. Single runs ship an empty binding list.
type ExecReq struct {
	Tenant   string           `json:"tenant"`
	Spec     core.CircuitSpec `json:"spec"`
	Bindings []core.Bindings  `json:"bindings,omitempty"`
	Opts     core.RunOptions  `json:"opts"`
}

// ExecResp is the "exec" reply: ordered results with parallel per-element
// error strings, plus how the submission was served.
type ExecResp struct {
	Results []*core.Result `json:"results"`
	Errs    []string       `json:"errs,omitempty"`
	Info    ExecInfo       `json:"info"`
}

// tenantReq is the payload of "set_tenant".
type tenantReq struct {
	Name   string `json:"name"`
	Weight int    `json:"weight,omitempty"`
	Quota  int    `json:"quota,omitempty"`
}

// Handle implements defw.Handler over the same JSON codec as the QPM. Each
// request carries its tenant token, so one connection can serve many
// sessions.
func (s *Server) Handle(method string, payload []byte) ([]byte, error) {
	who := "serve[" + s.backend + "]"
	switch method {
	case "exec":
		return defw.HandleJSON(who, func(r ExecReq) (ExecResp, error) {
			results, errs, info, err := s.Exec(r.Tenant, r.Spec, r.Bindings, r.Opts)
			return ExecResp{Results: results, Errs: errs, Info: info}, err
		})(payload)
	case "stats":
		return defw.HandleJSON(who, func(struct{}) (Stats, error) { return s.Stats(), nil })(payload)
	case "set_tenant":
		return defw.HandleJSON(who, func(r tenantReq) (struct{}, error) {
			if r.Name == "" {
				return struct{}{}, fmt.Errorf("%s: tenant name required", who)
			}
			s.SetTenant(r.Name, r.Weight, r.Quota)
			return struct{}{}, nil
		})(payload)
	default:
		return nil, fmt.Errorf("%s: unknown method %q", who, method)
	}
}
