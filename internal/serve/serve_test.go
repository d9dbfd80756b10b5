package serve

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qfw/internal/core"
)

// fakeExec is a deterministic batch-native executor that records every
// dispatch, so tests can observe dispatch sizes and scheduling order.
// Its results are pure functions of (spec, binding, effective options), and
// analytic (shots=0, observable) queries ignore the seed — mirroring the
// contract real simulators provide.
type fakeExec struct {
	deterministic bool
	fail          bool          // every execution errors
	gate          chan struct{} // non-nil: executions block until opened
	once          sync.Once

	mu      sync.Mutex
	batches []int    // size of every ExecuteBatch call, in dispatch order
	order   []string // spec names in dispatch order
}

// open releases gated executions; safe to call more than once, and cleanup
// calls it so a failing test cannot wedge Close behind a blocked executor.
func (f *fakeExec) open() {
	f.once.Do(func() {
		if f.gate != nil {
			close(f.gate)
		}
	})
}

func (f *fakeExec) Name() string { return "fake" }

func (f *fakeExec) Capabilities() core.Capabilities {
	return core.Capabilities{Backend: "fake", CPU: true, DeterministicSeeded: f.deterministic}
}

func (f *fakeExec) record(spec core.CircuitSpec, n int) {
	f.mu.Lock()
	f.batches = append(f.batches, n)
	f.order = append(f.order, spec.Name)
	f.mu.Unlock()
	if f.gate != nil {
		<-f.gate
	}
}

func (f *fakeExec) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.batches)
}

// sizes returns the size of every executor call so far, in dispatch order.
func (f *fakeExec) sizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batches...)
}

func (f *fakeExec) dispatchOrder() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.order...)
}

func fakeRun(spec core.CircuitSpec, b core.Bindings, o core.RunOptions) core.ExecResult {
	analytic := o.Shots == 0 && o.Observable != nil
	v := float64(o.Shots) + 7*float64(o.MaxBond) + 13*float64(o.Nodes) + 1e6*o.Cutoff
	v += 17 * float64(len(o.Subbackend))
	v += float64(len(spec.QASM))
	if o.Observable != nil {
		v += 0.5
	}
	if !analytic {
		v += 1000 * float64(o.Seed)
	}
	for k, x := range b {
		v += float64(len(k)) * x * 31
	}
	key := "analytic"
	if !analytic {
		key = "s" + strconv.FormatInt(o.Seed, 10)
	}
	shots := o.Shots
	if shots <= 0 {
		shots = 1
	}
	return core.ExecResult{Counts: map[string]int{key: shots}, ExpVal: &v}
}

func (f *fakeExec) Execute(spec core.CircuitSpec, opts core.RunOptions) (core.ExecResult, error) {
	f.record(spec, 1)
	if f.fail {
		return core.ExecResult{}, fmt.Errorf("fake failure")
	}
	return fakeRun(spec, nil, opts), nil
}

func (f *fakeExec) ExecuteBatch(spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) ([]core.ExecResult, error) {
	f.record(spec, len(bindings))
	if f.fail {
		return nil, fmt.Errorf("fake failure")
	}
	out := make([]core.ExecResult, len(bindings))
	for i, b := range bindings {
		out[i] = fakeRun(spec, b, opts.ForElement(i))
	}
	return out, nil
}

func testSpec(name string) core.CircuitSpec {
	return core.CircuitSpec{Name: name, NQubits: 2, QASM: "OPENQASM 2.0; // " + name}
}

func newServe(t *testing.T, f *fakeExec, workers int, cfg Config) *Server {
	t.Helper()
	q := core.NewQPM(f, workers, nil)
	s := New(q, cfg, nil)
	t.Cleanup(func() {
		f.open()
		s.Close()
		q.Close()
	})
	return s
}

func mustExec(t *testing.T, s *Server, tenant string, spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) []*core.Result {
	t.Helper()
	results, errs, _, err := s.Exec(tenant, spec, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != "" {
			t.Fatalf("element %d: %s", i, e)
		}
	}
	return results
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- cache behavior ---------------------------------------------------

func TestSeededRunReplaysFromCache(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{})
	sp := testSpec("ghz")
	opts := core.RunOptions{Shots: 128, Seed: 7}

	r1 := mustExec(t, s, "alice", sp, nil, opts)
	r2 := mustExec(t, s, "alice", sp, nil, opts)
	if f.calls() != 1 {
		t.Fatalf("executor ran %d times, want 1 (second run should replay)", f.calls())
	}
	if got, want := fmt.Sprint(r2[0].Counts), fmt.Sprint(r1[0].Counts); got != want {
		t.Fatalf("replay counts %s != original %s", got, want)
	}
	if *r2[0].ExpVal != *r1[0].ExpVal {
		t.Fatalf("replay expval %v != original %v", *r2[0].ExpVal, *r1[0].ExpVal)
	}
	tm := r2[0].Timings
	if !tm.CacheHit {
		t.Fatalf("replay should be marked as a cache hit, got %+v", tm)
	}
	if tm.ExecMS != 0 || tm.QueueMS != 0 {
		t.Fatalf("replay should report zero queue/exec timings, got %+v", tm)
	}
	if tm.TotalMS != tm.Sum() {
		t.Fatalf("replay TotalMS %v != component sum %v", tm.TotalMS, tm.Sum())
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// TestHitLookupCoversTheWholeHit: a cache hit reports its whole cost —
// key derivation, lock and probe — as CacheLookupMS, so over many hits its
// median is most of the median wall time of Server.Exec itself.
func TestHitLookupCoversTheWholeHit(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 1, Config{})
	sp := testSpec("hit-timing")
	opts := core.RunOptions{Shots: 128, Seed: 7, Observable: &core.Observable{Fields: []float64{1, -1}}}
	mustExec(t, s, "a", sp, nil, opts)
	const hits = 201
	lookup := make([]float64, hits)
	wall := make([]float64, hits)
	for i := range hits {
		t0 := time.Now()
		res := mustExec(t, s, "a", sp, nil, opts)
		wall[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		tm := res[0].Timings
		if !tm.CacheHit || tm.TotalMS != tm.Sum() {
			t.Fatalf("hit %d: timings %+v", i, tm)
		}
		lookup[i] = tm.CacheLookupMS
	}
	slices.Sort(lookup)
	slices.Sort(wall)
	if l, w := lookup[hits/2], wall[hits/2]; l < w/2 {
		t.Fatalf("median hit lookup %.6f ms is under half the median Exec wall %.6f ms", l, w)
	}
}

func TestUnseededSampledNeverCached(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{})
	sp := testSpec("sampler")
	opts := core.RunOptions{Shots: 64} // Seed 0: caller accepted fresh sampling

	mustExec(t, s, "a", sp, nil, opts)
	mustExec(t, s, "a", sp, nil, opts)
	if f.calls() != 2 {
		t.Fatalf("executor ran %d times, want 2 (unseeded runs must never replay)", f.calls())
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("unseeded run hit the cache: %+v", st)
	}
}

func TestAnalyticMemoizationSpansSeeds(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{})
	sp := testSpec("expval")
	obs := &core.Observable{Fields: []float64{1, -1}}

	r1 := mustExec(t, s, "a", sp, nil, core.RunOptions{Observable: obs, Seed: 3})
	r2 := mustExec(t, s, "a", sp, nil, core.RunOptions{Observable: obs, Seed: 9})
	if f.calls() != 1 {
		t.Fatalf("executor ran %d times, want 1 (analytic value is seed-independent)", f.calls())
	}
	if *r1[0].ExpVal != *r2[0].ExpVal {
		t.Fatalf("analytic memo returned %v then %v", *r1[0].ExpVal, *r2[0].ExpVal)
	}
}

func TestNonDeterministicBackendNeverCached(t *testing.T) {
	f := &fakeExec{deterministic: false} // e.g. the cloud path: replay unsound
	s := newServe(t, f, 2, Config{})
	sp := testSpec("cloudish")
	opts := core.RunOptions{Shots: 32, Seed: 5}

	mustExec(t, s, "a", sp, nil, opts)
	mustExec(t, s, "a", sp, nil, opts)
	if f.calls() != 2 {
		t.Fatalf("executor ran %d times, want 2 (non-replayable backend must not cache)", f.calls())
	}
	if st := s.Stats(); st.CacheHits != 0 || st.CacheLen != 0 {
		t.Fatalf("non-deterministic backend populated the cache: %+v", st)
	}
}

// TestCacheKeyCoversResultChangingOptions is the adversarial key test: any
// option that can change the returned distribution must produce a distinct
// cache entry. A false hit here would silently serve wrong physics.
func TestCacheKeyCoversResultChangingOptions(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{})
	base := core.RunOptions{Shots: 100, Seed: 7}
	sp := testSpec("key-sensitivity")
	mustExec(t, s, "a", sp, nil, base)

	variants := map[string]struct {
		spec core.CircuitSpec
		bind []core.Bindings
		opts func(core.RunOptions) core.RunOptions
	}{
		"seed":       {sp, nil, func(o core.RunOptions) core.RunOptions { o.Seed = 8; return o }},
		"shots":      {sp, nil, func(o core.RunOptions) core.RunOptions { o.Shots = 200; return o }},
		"subbackend": {sp, nil, func(o core.RunOptions) core.RunOptions { o.Subbackend = "mps"; return o }},
		"max_bond":   {sp, nil, func(o core.RunOptions) core.RunOptions { o.MaxBond = 16; return o }},
		"cutoff":     {sp, nil, func(o core.RunOptions) core.RunOptions { o.Cutoff = 1e-9; return o }},
		"nodes":      {sp, nil, func(o core.RunOptions) core.RunOptions { o.Nodes = 2; return o }},
		"observable": {sp, nil, func(o core.RunOptions) core.RunOptions {
			o.Observable = &core.Observable{Fields: []float64{1, 1}}
			return o
		}},
		"circuit": {testSpec("key-sensitivity-2"), nil, func(o core.RunOptions) core.RunOptions { return o }},
		"binding": {sp, []core.Bindings{{"theta": 0.25}}, func(o core.RunOptions) core.RunOptions { return o }},
	}
	want := 1
	for name, v := range variants {
		want++
		mustExec(t, s, "a", v.spec, v.bind, v.opts(base))
		if got := f.calls(); got != want {
			t.Fatalf("variant %q: executor ran %d times, want %d (false cache hit)", name, got, want)
		}
	}
	if st := s.Stats(); st.CacheHits != 0 {
		t.Fatalf("adversarial variants produced %d false hits", st.CacheHits)
	}

	// Sanity: the exact base request does replay.
	mustExec(t, s, "a", sp, nil, base)
	if f.calls() != want {
		t.Fatalf("exact repeat recomputed (calls %d, want %d)", f.calls(), want)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{CacheCap: 2})
	sp := testSpec("lru")
	for seed := int64(1); seed <= 3; seed++ {
		mustExec(t, s, "a", sp, nil, core.RunOptions{Shots: 10, Seed: seed})
	}
	if st := s.Stats(); st.CacheLen != 2 {
		t.Fatalf("cache len %d, want 2 (bounded)", st.CacheLen)
	}
	mustExec(t, s, "a", sp, nil, core.RunOptions{Shots: 10, Seed: 1}) // evicted -> recompute
	if f.calls() != 4 {
		t.Fatalf("executor ran %d times, want 4 (seed 1 was evicted)", f.calls())
	}
	mustExec(t, s, "a", sp, nil, core.RunOptions{Shots: 10, Seed: 3}) // still resident
	if f.calls() != 4 {
		t.Fatalf("executor ran %d times, want 4 (seed 3 should replay)", f.calls())
	}
}

// ---- one submission, one dispatch -------------------------------------

// TestConcurrentIdenticalSeededRunsAllExecute: identical seeded submissions
// in flight together are not deduplicated. Each dispatches at once as its
// own unit beside the others, all return the same bits, and the cache ends
// with the one entry they share.
func TestConcurrentIdenticalSeededRunsAllExecute(t *testing.T) {
	const n = 4
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	s := newServe(t, f, n, Config{})
	sp := testSpec("identical")
	opts := core.RunOptions{Shots: 50, Seed: 11}

	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, errs, _, err := s.Exec("a", sp, nil, opts)
			if err == nil && errs[0] == "" {
				results[i] = res[0]
			}
		}(i)
	}
	// Every submission reaches the executor while it is still gated: none
	// waits behind another execution of the same spec.
	waitFor(t, "every submission dispatched", func() bool { return f.calls() == n })
	f.open()
	wg.Wait()

	for i, r := range results {
		if r == nil {
			t.Fatalf("submission %d failed", i)
		}
		if math.Float64bits(*r.ExpVal) != math.Float64bits(*results[0].ExpVal) ||
			fmt.Sprint(r.Counts) != fmt.Sprint(results[0].Counts) {
			t.Fatalf("submission %d diverged: %v %v vs %v %v", i, *r.ExpVal, r.Counts, *results[0].ExpVal, results[0].Counts)
		}
	}
	if st := s.Stats(); st.DispatchGroups != n || st.Deduped != 0 || st.CacheLen != 1 {
		t.Fatalf("stats %+v, want %d dispatches, no dedup, one cache entry", st, n)
	}
}

// analyticBind is submission i of the coalescing tests: the same spec and
// observable (one merge group), a distinct binding each.
func analyticBind(i int) []core.Bindings {
	return []core.Bindings{{"theta": float64(i) * 0.1}}
}

var analyticOpts = core.RunOptions{Observable: &core.Observable{Fields: []float64{1, -1}}}

// execAsync runs one submission on its own goroutine and reports failures
// through t.Error (it may not call t.Fatal off the test goroutine).
func execAsync(t *testing.T, wg *sync.WaitGroup, s *Server, tenant string, spec core.CircuitSpec, bindings []core.Bindings, opts core.RunOptions) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, errs, _, err := s.Exec(tenant, spec, bindings, opts)
		if err != nil || errs[0] != "" || res[0] == nil {
			t.Errorf("tenant %s: %v %v", tenant, err, errs)
		}
	}()
}

// TestAnalyticSubmissionsDispatchAsSeparateUnits: with a same-spec sibling
// of the tenant still executing, later analytic submissions are not merged
// behind it. Each is its own unit and its own QPM batch, and Window (an
// hour here) holds nothing back.
func TestAnalyticSubmissionsDispatchAsSeparateUnits(t *testing.T) {
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	s := newServe(t, f, 2, Config{Window: time.Hour})
	sp := testSpec("separate")

	const n = 6
	var wg sync.WaitGroup
	execAsync(t, &wg, s, "a", sp, analyticBind(0), analyticOpts)
	waitFor(t, "first submission dispatched", func() bool { return f.calls() == 1 })
	for i := 1; i < n; i++ {
		execAsync(t, &wg, s, "a", sp, analyticBind(i), analyticOpts)
	}
	// The second slot takes one submission at once; the rest queue for a
	// slot, each as its own unit.
	waitFor(t, "second slot busy and the rest queued", func() bool {
		return f.calls() == 2 && s.Stats().QueueDepth == n-2
	})
	f.open()
	wg.Wait()

	if batches := f.sizes(); len(batches) != n || slices.ContainsFunc(batches, func(k int) bool { return k != 1 }) {
		t.Fatalf("dispatched batches %v, want %d of one element each", batches, n)
	}
	if st := s.Stats(); st.DispatchGroups != n || st.DispatchElems != n {
		t.Fatalf("dispatched %d groups / %d elems, want %d / %d", st.DispatchGroups, st.DispatchElems, n, n)
	}
}

// TestIdleServerAddsNoAdmissionDelay: with nothing of its group in flight a
// mergeable request never waits, whatever Window says.
func TestIdleServerAddsNoAdmissionDelay(t *testing.T) {
	const window = 50 * time.Millisecond
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{Window: window})
	sp := testSpec("idle")

	best := math.Inf(1)
	for i := 0; i < 5; i++ {
		res := mustExec(t, s, "a", sp, analyticBind(i), analyticOpts)
		wait := res[0].Timings.CoalesceWaitMS
		if wait >= float64(window/time.Millisecond)/2 {
			t.Fatalf("request %d waited %.3f ms on an idle server (Window %s)", i, wait, window)
		}
		best = min(best, wait)
	}
	// One scheduler hiccup must not fail the test; five in a row would.
	if best >= 1 {
		t.Fatalf("best CoalesceWaitMS %.3f over 5 idle requests, want < 1", best)
	}
}

// ---- seed schedule and batch correctness ------------------------------

// TestServedBatchMatchesDirectQPM pins the bit-identical contract: a
// multi-element seeded batch served through the scheduler must equal the
// same batch submitted straight to a QPM, element by element.
func TestServedBatchMatchesDirectQPM(t *testing.T) {
	sp := testSpec("vqe-sweep")
	bindings := []core.Bindings{{"t": 0.1}, {"t": 0.2}, {"t": 0.3}, {"t": 0.4}, {"t": 0.5}}
	opts := core.RunOptions{Shots: 64, Seed: 42}

	fServe := &fakeExec{deterministic: true}
	s := newServe(t, fServe, 2, Config{})
	served := mustExec(t, s, "a", sp, bindings, opts)

	fDirect := &fakeExec{deterministic: true}
	q := core.NewQPM(fDirect, 2, nil)
	defer q.Close()
	id, err := q.SubmitBatch(sp, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, errs, err := q.WaitBatch(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bindings {
		if errs[i] != "" {
			t.Fatalf("direct element %d: %s", i, errs[i])
		}
		if *served[i].ExpVal != *direct[i].ExpVal {
			t.Fatalf("element %d: served %v != direct %v", i, *served[i].ExpVal, *direct[i].ExpVal)
		}
		if fmt.Sprint(served[i].Counts) != fmt.Sprint(direct[i].Counts) {
			t.Fatalf("element %d: served counts %v != direct %v", i, served[i].Counts, direct[i].Counts)
		}
	}

	// The whole batch replays from cache, element-identical.
	replay := mustExec(t, s, "a", sp, bindings, opts)
	if fServe.calls() != 1 {
		t.Fatalf("cached batch recomputed (executor calls %d)", fServe.calls())
	}
	for i := range bindings {
		if *replay[i].ExpVal != *served[i].ExpVal {
			t.Fatalf("replay element %d diverged", i)
		}
	}
}

// TestPartiallyCachedSeededBatchRecomputesWhole pins the rule that a
// seed-scheduled batch never splits: replaying only some elements would
// shift the dispatch indices (and thus seeds) of the rest.
func TestPartiallyCachedSeededBatchRecomputesWhole(t *testing.T) {
	f := &fakeExec{deterministic: true}
	s := newServe(t, f, 2, Config{})
	sp := testSpec("partial")
	bindings := []core.Bindings{{"t": 0.1}, {"t": 0.2}, {"t": 0.3}}
	opts := core.RunOptions{Shots: 32, Seed: 5}

	// Prime the cache with exactly element 0's effective execution (a solo
	// run with the batch base seed and the first binding).
	solo := mustExec(t, s, "a", sp, bindings[:1], opts)
	batch := mustExec(t, s, "a", sp, bindings, opts)

	f.mu.Lock()
	last := f.batches[len(f.batches)-1]
	f.mu.Unlock()
	if last != len(bindings) {
		t.Fatalf("partially cached batch dispatched %d elements, want all %d", last, len(bindings))
	}
	if *batch[0].ExpVal != *solo[0].ExpVal {
		t.Fatalf("element 0 of batch (%v) != solo run with base seed (%v)", *batch[0].ExpVal, *solo[0].ExpVal)
	}
}

// ---- fair share, quotas, backpressure ---------------------------------

func TestWeightedFairShareInterleavesTenants(t *testing.T) {
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	s := newServe(t, f, 1, Config{Inflight: 1})
	s.SetTenant("alice", 3, 0)
	s.SetTenant("bob", 1, 0)

	// Occupy the single dispatch slot so everything below queues up and the
	// scheduler chooses an order among a full backlog.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mustExec(t, s, "warm", testSpec("warm"), nil, core.RunOptions{Shots: 1, Seed: 100})
	}()
	waitFor(t, "warmup dispatch", func() bool { return f.calls() == 1 })

	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mustExec(t, s, "alice", testSpec("alice"), nil, core.RunOptions{Shots: 1, Seed: int64(i + 1)})
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mustExec(t, s, "bob", testSpec("bob"), nil, core.RunOptions{Shots: 1, Seed: int64(i + 201)})
		}(i)
	}
	waitFor(t, "backlog", func() bool { return s.Stats().QueueDepth == 12 })
	f.open()
	wg.Wait()

	order := f.dispatchOrder()[1:] // drop the warmup
	if len(order) != 12 {
		t.Fatalf("dispatched %d units, want 12", len(order))
	}
	aliceFirst8, bobFirst := 0, -1
	for i, name := range order {
		if name == "alice" && i < 8 {
			aliceFirst8++
		}
		if name == "bob" && bobFirst < 0 {
			bobFirst = i
		}
	}
	// Weight 3:1 means alice should take ~6 of the first 8 slots while bob
	// still lands early — weighted sharing, not strict priority.
	if aliceFirst8 < 5 {
		t.Fatalf("alice got %d of first 8 dispatch slots, want >=5 under 3:1 weights (order %v)", aliceFirst8, order)
	}
	if bobFirst < 0 || bobFirst > 5 {
		t.Fatalf("bob's first dispatch at position %d, want early interleave (order %v)", bobFirst, order)
	}
}

func TestTenantQuotaShedsWithTypedError(t *testing.T) {
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	s := newServe(t, f, 1, Config{Inflight: 1})
	s.SetTenant("t", 0, 2)
	sp := testSpec("quota")

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mustExec(t, s, "t", sp, nil, core.RunOptions{Shots: 1, Seed: int64(i + 1)})
		}(i)
	}
	waitFor(t, "quota fill", func() bool {
		st := s.Stats()
		return st.Tenants["t"].Outstanding == 2
	})

	_, _, _, err := s.Exec("t", sp, nil, core.RunOptions{Shots: 1, Seed: 99})
	if !IsOverloaded(err) {
		t.Fatalf("over-quota submission returned %v, want ErrOverloaded", err)
	}
	if d, ok := RetryAfterHint(err); !ok || d <= 0 {
		t.Fatalf("shed error carries no retry hint: %v", err)
	}
	// The hint rides in the message, so it survives RPC flattening.
	if d, ok := RetryAfterHint(fmt.Errorf("%s", err.Error())); !ok || d <= 0 {
		t.Fatal("flattened shed error lost the retry hint")
	}
	// Another tenant is unaffected by t's quota.
	var other error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, other = s.Exec("u", sp, nil, core.RunOptions{Shots: 1, Seed: 7})
	}()
	time.Sleep(5 * time.Millisecond)
	f.open()
	wg.Wait()
	if other != nil {
		t.Fatalf("tenant u shed by tenant t's quota: %v", other)
	}
	if st := s.Stats(); st.Shed != 1 || st.Tenants["t"].Shed != 1 {
		t.Fatalf("shed accounting %+v", st)
	}
}

func TestGlobalQueueCapShedsWithTypedError(t *testing.T) {
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	s := newServe(t, f, 1, Config{Inflight: 1, QueueCap: 1})
	sp := testSpec("cap")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mustExec(t, s, "a", sp, nil, core.RunOptions{Shots: 1, Seed: 1})
	}()
	waitFor(t, "first dispatch", func() bool { return f.calls() == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		mustExec(t, s, "b", sp, nil, core.RunOptions{Shots: 1, Seed: 2})
	}()
	waitFor(t, "queued element", func() bool { return s.Stats().QueueDepth == 1 })

	_, _, _, err := s.Exec("c", sp, nil, core.RunOptions{Shots: 1, Seed: 3})
	if !IsOverloaded(err) {
		t.Fatalf("over-cap submission returned %v, want ErrOverloaded", err)
	}
	f.open()
	wg.Wait()
}

// TestSubmissionOverAdmissionBoundIsRefused: a submission that needs more
// executions than min(quota, QueueCap) could never be admitted, so it is
// refused with a plain error (not a shed, no retry hint) instead of being
// told to retry forever. One of exactly the bound is admitted.
func TestSubmissionOverAdmissionBoundIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		quota int // per-tenant override; 0 keeps the default (QueueCap)
		bound int
	}{
		{"queue cap", 0, 8},
		{"tenant quota", 5, 5},
		{"quota above queue cap", 20, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeExec{deterministic: true}
			s := newServe(t, f, 2, Config{QueueCap: 8})
			if tc.quota > 0 {
				s.SetTenant("t", 0, tc.quota)
			}
			sp := testSpec("sweep")
			opts := core.RunOptions{Shots: 4, Seed: 3}
			sweep := func(k int) []core.Bindings {
				b := make([]core.Bindings, k)
				for i := range b {
					b[i] = core.Bindings{"t": float64(i)}
				}
				return b
			}

			_, _, _, err := s.Exec("t", sp, sweep(tc.bound+1), opts)
			if err == nil {
				t.Fatalf("submission of %d admitted over bound %d", tc.bound+1, tc.bound)
			}
			if IsOverloaded(err) {
				t.Fatalf("oversized submission reported as overload: %v", err)
			}
			if _, ok := RetryAfterHint(err); ok {
				t.Fatalf("oversized submission carries a retry hint: %v", err)
			}
			for _, want := range []string{fmt.Sprintf("needs %d executions", tc.bound+1), fmt.Sprintf("at most %d", tc.bound)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("refusal %q does not say %q", err, want)
				}
			}
			if st := s.Stats(); st.Shed != 0 || st.Tenants["t"].Shed != 0 || f.calls() != 0 {
				t.Fatalf("refusal counted as shed or executed: %+v (calls %d)", st, f.calls())
			}

			if res := mustExec(t, s, "t", sp, sweep(tc.bound), opts); len(res) != tc.bound || f.calls() != 1 {
				t.Fatalf("submission of exactly %d: %d results, %d executor calls", tc.bound, len(res), f.calls())
			}
		})
	}
}

// ---- lifecycle --------------------------------------------------------

// TestDrainFlushesQueuedUnitsAndClosesAdmission: Drain refuses new work at
// once, and a unit already queued behind the busy slot still runs before
// the layer reports drained.
func TestDrainFlushesQueuedUnitsAndClosesAdmission(t *testing.T) {
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	s := newServe(t, f, 1, Config{Inflight: 1})
	sp := testSpec("drain")

	var wg sync.WaitGroup
	execAsync(t, &wg, s, "a", sp, nil, core.RunOptions{Shots: 8})
	waitFor(t, "first dispatch", func() bool { return f.calls() == 1 })
	execAsync(t, &wg, s, "a", sp, nil, core.RunOptions{Shots: 8})
	waitFor(t, "queued unit", func() bool { return s.Stats().QueueDepth == 1 })

	if s.Drain(0) {
		t.Fatal("drained with one unit executing and one queued")
	}
	_, _, _, err := s.Exec("a", sp, nil, core.RunOptions{Shots: 8})
	if !core.IsDraining(err) {
		t.Fatalf("submission during drain returned %v, want ErrDraining", err)
	}
	f.open()
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain timed out with the executor released")
	}
	wg.Wait()
	if f.calls() != 2 {
		t.Fatalf("executor ran %d times, want 2 (the queued unit must flush)", f.calls())
	}
}

// TestFailedDispatchIsReaped: the serving layer owns the lifecycle of the
// QPM batches it creates, so a dispatch whose every element failed must not
// stay in the QPM's task table any more than a successful one.
func TestFailedDispatchIsReaped(t *testing.T) {
	f := &fakeExec{deterministic: true, fail: true}
	q := core.NewQPM(f, 2, nil)
	defer q.Close()
	s := New(q, Config{}, nil)
	defer s.Close()

	for _, bindings := range [][]core.Bindings{nil, {{"t": 0.1}, {"t": 0.2}}} {
		_, errs, _, err := s.Exec("a", testSpec("doomed"), bindings, core.RunOptions{Shots: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if !strings.Contains(e, "fake failure") {
				t.Fatalf("element %d error %q, want the executor's failure", i, e)
			}
		}
	}
	if list := q.List(); len(list) != 0 {
		t.Fatalf("QPM task table after failed dispatches: %v, want empty", list)
	}
	if st := s.Stats(); st.Tenants["a"].Outstanding != 0 {
		t.Fatalf("failed elements still outstanding: %+v", st.Tenants["a"])
	}
}

func TestQueueDepthTelemetryRecorded(t *testing.T) {
	f := &fakeExec{deterministic: true}
	q := core.NewQPM(f, 2, nil)
	defer q.Close()
	s := New(q, Config{}, nil)
	defer s.Close()
	sp := testSpec("telemetry")
	results, errs, _, err := s.Exec("a", sp, nil, core.RunOptions{Shots: 4, Seed: 1})
	if err != nil || errs[0] != "" || results[0] == nil {
		t.Fatalf("exec: %v %v", err, errs)
	}
	if series := q.Recorder().GaugeSeries(`qfw_serve_queue_depth{backend="fake"}`); len(series) == 0 {
		t.Fatal("no queue-depth gauge recorded")
	}
	if st := s.Stats(); st.PeakQueueDepth < 1 {
		t.Fatalf("peak queue depth %d, want >=1", st.PeakQueueDepth)
	}
}
