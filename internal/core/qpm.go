package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/defw"
	"qfw/internal/faults"
	"qfw/internal/trace"
)

// jobKind describes one of the three kinds of job: the infix of its IDs
// ("<backend>-<infix>N") and the noun its error messages use. Beyond those,
// a kind decides only which executor call serves the job (see work):
// registration, the status lifecycle, waiting and reaping are shared.
type jobKind struct{ infix, noun string }

var (
	kindSingle   = &jobKind{"", "task"}                // one circuit through Execute
	kindBatch    = &jobKind{"batch-", "batch"}         // K bindings through ExecuteBatch, or chunks of Execute
	kindGradient = &jobKind{"grad-", "gradient batch"} // K bindings through ExecuteGradient, as one work item
)

// job is one unit of offloaded work tracked by a QPM: a circuit spec, K ≥ 0
// parameter bindings and the options they run under. Outcomes live in slots:
// a batch has one per binding, so elements fail independently; a single run
// and a gradient batch succeed or fail whole and have one. The slots are
// written by the job's work items (each its own range) and read only after
// done is closed.
type job struct {
	id       string
	kind     *jobKind
	spec     CircuitSpec
	bindings []Bindings
	opts     RunOptions
	created  time.Time
	deadline time.Time // zero = none

	mu      sync.Mutex
	status  Status
	pending int           // work items enqueued and not yet finished
	done    chan struct{} // closed when the last work item finishes

	results []*Result    // per slot; nil where the slot failed (unused by gradients)
	errs    []string     // per slot; "" for success
	grads   []GradResult // kindGradient: one per binding
}

// failure is the error of a job that succeeds or fails whole.
func (j *job) failure() error {
	if j.errs[0] != "" {
		return errors.New(j.errs[0])
	}
	return nil
}

// QPM is a Quantum Platform Manager service instance for one backend: it
// owns the job table, the work queue and the circuit lifecycle, and
// dispatches work round-robin to its QRC worker threads. Work items are
// closures, so jobs of every kind share the same queue and worker pool.
type QPM struct {
	backend  string
	exec     Executor
	rec      *trace.Recorder
	cache    *ParseCache
	queue    chan func(worker string)
	nextID   atomic.Int64
	inflight atomic.Int64 // queued + running work items
	busyNS   atomic.Int64 // cumulative worker busy time (utilization source)
	mu       sync.Mutex
	jobs     map[string]*job
	methods  map[string]func(payload []byte) ([]byte, error) // RPC table, see rpcMethods
	closed   bool
	quiesced bool
	workers  int
	workerWG sync.WaitGroup
	retry    faults.Policy // guarded by mu; see SetRetryPolicy

	// Resolved metric handles (shared registry, labeled by backend).
	mTasks, mFails, mRetries *trace.Counter
	hQueue, hExec            *trace.Histogram
}

// defaultQueueCap is the QPM task-queue depth (tests shrink it via
// newQPMWithQueueCap to exercise the queue-full path).
const defaultQueueCap = 1024

// NewQPM starts a QPM with the given number of QRC worker threads (the paper
// uses eight per QPM process).
func NewQPM(exec Executor, workers int, rec *trace.Recorder) *QPM {
	return newQPMWithQueueCap(exec, workers, rec, defaultQueueCap)
}

func newQPMWithQueueCap(exec Executor, workers int, rec *trace.Recorder, queueCap int) *QPM {
	if workers <= 0 {
		workers = 8
	}
	if rec == nil {
		rec = trace.NewRecorder()
	}
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	q := &QPM{
		backend: exec.Name(),
		exec:    exec,
		rec:     rec,
		cache:   NewParseCache(),
		queue:   make(chan func(worker string), queueCap),
		jobs:    make(map[string]*job),
		workers: workers,
		retry:   DefaultRetryPolicy(),
	}
	met := rec.Metrics()
	q.mTasks = met.Counter(trace.LabeledName("qfw_qpm_tasks_total", "backend", q.backend))
	q.mFails = met.Counter(trace.LabeledName("qfw_qpm_failures_total", "backend", q.backend))
	q.mRetries = met.Counter(trace.LabeledName("qfw_qpm_retries_total", "backend", q.backend))
	q.hQueue = met.Histogram(trace.LabeledName("qfw_qpm_queue_ms", "backend", q.backend))
	q.hExec = met.Histogram(trace.LabeledName("qfw_qpm_exec_ms", "backend", q.backend))
	q.methods = q.rpcMethods()
	for w := 0; w < workers; w++ {
		q.workerWG.Add(1)
		go q.qrcWorker(w)
	}
	return q
}

// Backend returns the backend name this QPM serves.
func (q *QPM) Backend() string { return q.backend }

// Workers returns the number of QRC worker threads.
func (q *QPM) Workers() int { return q.workers }

// Capabilities returns the backing executor's capability row without an RPC
// round trip — the serving layer reads it to decide result-cache soundness.
func (q *QPM) Capabilities() Capabilities { return q.exec.Capabilities() }

// Recorder exposes the timing instrumentation.
func (q *QPM) Recorder() *trace.Recorder { return q.rec }

// BusyNS returns the cumulative busy nanoseconds across the QRC workers —
// the source a trace.UtilSampler turns into the backend's utilization
// time series.
func (q *QPM) BusyNS() int64 { return q.busyNS.Load() }

// ParseCount reports how many QASM parses this QPM's spec cache performed
// (only the fallback path for executors without native batch support parses
// at the QPM; batch-native executors parse in their own caches).
func (q *QPM) ParseCount() int64 { return q.cache.Parses() }

// DefaultRetryPolicy is the QPM's per-execution retry: up to three
// attempts at transient failures with millisecond-scale full-jitter
// backoff. Deadline misses and permanent errors are never retried.
func DefaultRetryPolicy() faults.Policy {
	return faults.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}
}

// SetRetryPolicy replaces the executor retry policy (MaxAttempts of 1
// disables retrying). Tests use it to toggle the recovery machinery; it
// applies to work submitted afterwards.
func (q *QPM) SetRetryPolicy(p faults.Policy) {
	q.mu.Lock()
	q.retry = p
	q.mu.Unlock()
}

// guarded runs one executor call with panic isolation and an optional
// deadline. The call executes on its own goroutine: a panic is recovered
// into a transient error (one crashing element must never take the worker
// or the daemon down), and a call still running at the deadline is
// abandoned — the worker slot frees immediately and the stray goroutine
// ends whenever the executor returns; its result is discarded. An
// already-expired deadline fails fast without touching the backend.
func guarded[T any](deadline time.Time, what string, call func() (T, error)) (T, error) {
	var zero T
	if deadlinePassed(deadline) {
		return zero, fmt.Errorf("%s: %w (expired before execution)", what, ErrDeadlineExceeded)
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				var z T
				// Recovered panics are classified transient: the isolation
				// already contained the blast radius, and a bounded re-attempt
				// on fresh state is exactly the graceful-degradation contract.
				// A deterministic panic still fails after MaxAttempts.
				ch <- outcome{z, fmt.Errorf("%s: %w: executor panic: %v", what, faults.ErrTransient, p)}
			}
		}()
		v, err := call()
		ch <- outcome{v, err}
	}()
	if deadline.IsZero() {
		out := <-ch
		return out.v, out.err
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-timer.C:
		return zero, fmt.Errorf("%s: %w (executor abandoned)", what, ErrDeadlineExceeded)
	}
}

// qrcWorker is one Quantum Resource Controller thread: it pulls queued work
// items and triggers backend executions (MPI runs for local simulators,
// REST calls for cloud backends). Busy time accumulates per work item for
// the utilization time series.
func (q *QPM) qrcWorker(id int) {
	defer q.workerWG.Done()
	worker := fmt.Sprintf("%s/qrc-%d", q.backend, id)
	for job := range q.queue {
		start := time.Now()
		job(worker)
		q.busyNS.Add(int64(time.Since(start)))
		q.inflight.Add(-1)
	}
}

// enqueue submits a work item without blocking; it fails when the queue is
// full or the QPM is closed or quiesced. The mutex guards against a
// concurrent Close racing the channel send.
func (q *QPM) enqueue(job func(worker string)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admitting(); err != nil {
		return err
	}
	select {
	case q.queue <- job:
		q.inflight.Add(1)
		return nil
	default:
		return fmt.Errorf("qpm[%s]: queue full", q.backend)
	}
}

// admitting reports why the QPM takes no new work, if it does not; q.mu
// must be held.
func (q *QPM) admitting() error {
	if q.closed {
		return fmt.Errorf("qpm[%s]: closed", q.backend)
	}
	if q.quiesced {
		return fmt.Errorf("qpm[%s]: %w", q.backend, ErrDraining)
	}
	return nil
}

// Quiesce closes admission without stopping the workers: subsequent Submit*
// and Exec* calls fail with ErrDraining while already-queued work keeps
// executing. It is the first half of a graceful drain.
func (q *QPM) Quiesce() {
	q.mu.Lock()
	q.quiesced = true
	q.mu.Unlock()
}

// Pending reports how many work items are queued or running.
func (q *QPM) Pending() int64 { return q.inflight.Load() }

// Drain quiesces the QPM and waits up to timeout for in-flight work to
// finish, reporting whether the queue fully drained. It does not stop the
// workers — Close still applies afterwards.
func (q *QPM) Drain(timeout time.Duration) bool {
	q.Quiesce()
	deadline := time.Now().Add(timeout)
	for q.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// taskTimings assembles the breakdown of one executed work item: queue
// wait, execution wall time with retry backoff split out, and the total
// as the exact component sum (so clients can always reconcile the parts
// against the whole).
func taskTimings(created, started, finished time.Time, rs faults.RetryStats) Timings {
	const ms = float64(time.Millisecond)
	queue := float64(started.Sub(created)) / ms
	backoff := float64(rs.Backoff) / ms
	exec := float64(finished.Sub(started))/ms - backoff
	if exec < 0 {
		exec = 0
	}
	tm := Timings{QueueMS: queue, ExecMS: exec, RetryBackoffMS: backoff, Attempts: rs.Attempts}
	tm.TotalMS = tm.Sum()
	return tm
}

// observeTimings feeds one completed work item into the latency
// histograms and task counter.
func (q *QPM) observeTimings(tm Timings) {
	q.mTasks.Inc()
	q.hQueue.Observe(tm.QueueMS)
	q.hExec.Observe(tm.ExecMS)
}

// Close drains the queue and stops the workers.
func (q *QPM) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.queue)
	q.mu.Unlock()
	q.workerWG.Wait()
}

// register validates a submission, mints its ID and enters it, Queued, in
// the job table — the first step of every entry point. items is how many
// work items the caller is about to enqueue for it.
func (q *QPM) register(kind *jobKind, spec CircuitSpec, bindings []Bindings, opts RunOptions, items int) (*job, error) {
	if spec.QASM == "" {
		return nil, fmt.Errorf("qpm[%s]: empty circuit spec", q.backend)
	}
	if kind != kindSingle && len(bindings) == 0 {
		return nil, fmt.Errorf("qpm[%s]: empty %s", q.backend, kind.noun)
	}
	slots := 1
	if kind == kindBatch {
		slots = len(bindings)
	}
	// The one place a request's shot default is resolved: shots 0 without
	// an observable samples 1024. With one it is an analytic query, and
	// engines, which sample only when shots > 0, return no counts.
	if opts.Shots <= 0 && opts.Observable == nil {
		opts.Shots = 1024
	}
	// The deadline is anchored at submission, so queue wait counts against
	// the RunOptions.TimeoutMS budget.
	created := time.Now()
	var deadline time.Time
	if opts.TimeoutMS > 0 {
		deadline = created.Add(time.Duration(opts.TimeoutMS) * time.Millisecond)
	}
	j := &job{
		id:       fmt.Sprintf("%s-%s%d", q.backend, kind.infix, q.nextID.Add(1)),
		kind:     kind,
		spec:     spec,
		bindings: bindings,
		opts:     opts,
		created:  created,
		deadline: deadline,
		status:   StatusQueued,
		pending:  items,
		done:     make(chan struct{}),
		results:  make([]*Result, slots),
		errs:     make([]string, slots),
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.admitting(); err != nil {
		return nil, err
	}
	q.jobs[j.id] = j
	return j, nil
}

// Submit registers and enqueues one circuit. A task the queue refuses is
// unregistered again: the caller never learns its id, so nothing could
// reap it later.
func (q *QPM) Submit(spec CircuitSpec, opts RunOptions) (string, error) {
	j, err := q.register(kindSingle, spec, nil, opts, 1)
	if err != nil {
		return "", err
	}
	if err := q.enqueue(func(worker string) { q.work(j, 0, 1, worker) }); err != nil {
		q.reap(j.id)
		return "", err
	}
	return j.id, nil
}

// SubmitBatch registers and enqueues one parametric batch: a single spec
// plus K bindings. Batch-native executors receive the whole batch as one
// work item (so e.g. the cloud backend really maps it onto one REST job
// array and parallelism is the executor's choice); executors without batch
// support are fanned across the QRC workers in contiguous chunks. Results
// come back ordered via WaitBatch. Chunks that cannot be enqueued (queue
// full) fail their elements instead of failing the whole batch.
func (q *QPM) SubmitBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) (string, error) {
	items := 1
	if _, native := q.exec.(BatchExecutor); !native {
		items = min(q.workers, len(bindings))
	}
	return q.submit(kindBatch, spec, bindings, opts, items)
}

// SubmitGradient registers and enqueues one gradient batch, evaluated as one
// work item (the adjoint engine fans bindings across its own worker pool).
// The backend must implement GradientExecutor — callers probe
// Capabilities.Gradients first; a submit against a non-differentiating
// backend fails immediately rather than queueing doomed work.
func (q *QPM) SubmitGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) (string, error) {
	if _, ok := q.exec.(GradientExecutor); !ok {
		return "", fmt.Errorf("qpm[%s]: backend does not support gradient execution", q.backend)
	}
	return q.submit(kindGradient, spec, bindings, opts, 1)
}

// submit registers a job and enqueues its work as items work items over
// contiguous slot ranges. An item the queue refuses fails its own slots with
// the queue's error; the job itself is always accepted.
func (q *QPM) submit(kind *jobKind, spec CircuitSpec, bindings []Bindings, opts RunOptions, items int) (string, error) {
	j, err := q.register(kind, spec, bindings, opts, items)
	if err != nil {
		return "", err
	}
	k := len(j.errs)
	for w := 0; w < items; w++ {
		lo, hi := w*k/items, (w+1)*k/items
		if err := q.enqueue(func(worker string) { q.work(j, lo, hi, worker) }); err != nil {
			q.fail(j, lo, hi, err.Error())
		}
	}
	return j.id, nil
}

// Exec is the blocking form of Submit: Submit → Wait → reap, so it is the
// same execution path with the task reaped before the result is returned —
// on success and on failure alike. It is what the "exec" RPC serves: nothing
// is left in the task table.
func (q *QPM) Exec(spec CircuitSpec, opts RunOptions) (*Result, error) {
	id, err := q.Submit(spec, opts)
	if err != nil {
		return nil, err
	}
	defer q.reap(id)
	return q.Wait(id)
}

// ExecBatch is the blocking, self-reaping form of SubmitBatch + WaitBatch.
func (q *QPM) ExecBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]*Result, []string, error) {
	id, err := q.SubmitBatch(spec, bindings, opts)
	if err != nil {
		return nil, nil, err
	}
	defer q.reap(id)
	return q.WaitBatch(id)
}

// ExecGradient is the blocking, self-reaping form of SubmitGradient +
// WaitGradient.
func (q *QPM) ExecGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	id, err := q.SubmitGradient(spec, bindings, opts)
	if err != nil {
		return nil, err
	}
	defer q.reap(id)
	return q.WaitGradient(id)
}

// reap removes a job from the table once its blocking caller has waited it
// out, or once the queue refused it.
func (q *QPM) reap(id string) {
	q.mu.Lock()
	delete(q.jobs, id)
	q.mu.Unlock()
}

// fail retires one work item without executing it: its slots take msg as
// their error.
func (q *QPM) fail(j *job, lo, hi int, msg string) {
	for i := lo; i < hi; i++ {
		j.errs[i] = msg
	}
	q.finish(j)
}

// finish retires one work item. The last one settles the job — Done, or
// Failed with every failed slot counted — and releases the waiters.
func (q *QPM) finish(j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending--
	if j.pending > 0 {
		return
	}
	j.status = StatusDone
	var failed int64
	for _, e := range j.errs {
		if e != "" {
			failed++
		}
	}
	if failed > 0 {
		j.status = StatusFailed
		q.mFails.Add(failed)
	}
	close(j.done)
}

// work is one queued work item: slots [lo, hi) of j on a QRC worker. The
// kinds differ only in the executor call made here.
func (q *QPM) work(j *job, lo, hi int, worker string) {
	j.mu.Lock()
	j.status = StatusRunning
	j.mu.Unlock()
	defer q.finish(j)
	name := j.spec.Name
	switch j.kind {
	case kindSingle:
		defer q.rec.Span("exec:"+name, worker)()
		q.runSlot(j, 0, "exec:"+name, worker, func() (ExecResult, error) {
			return q.exec.Execute(j.spec, j.opts)
		})
	case kindBatch:
		defer q.rec.Span(fmt.Sprintf("exec-batch:%s[%d:%d]", name, lo, hi), worker)()
		q.runChunk(j, lo, hi, worker)
	case kindGradient:
		defer q.rec.Span("exec-grad:"+name, worker)()
		started := time.Now()
		grads, rs, err := attempt(q, j, "exec-grad:"+name, worker, func() ([]GradResult, error) {
			return q.exec.(GradientExecutor).ExecuteGradient(j.spec, j.bindings, j.opts)
		})
		if err != nil {
			j.errs[0] = err.Error()
			return
		}
		j.grads = grads
		q.observeTimings(taskTimings(j.created, started, time.Now(), rs))
	}
}

// attempt is one executor call under the full fault envelope: panic
// isolation, deadline, and transient retry. Each attempt records an
// "executor:" span on the worker's row (nesting under the work item's
// "exec…:" span in the Chrome trace), and the returned RetryStats separate
// backoff time from execution time in the Timings breakdown.
func attempt[T any](q *QPM, j *job, what, worker string, call func() (T, error)) (T, faults.RetryStats, error) {
	var out T
	q.mu.Lock()
	retry := q.retry
	q.mu.Unlock()
	rs, err := retry.DoStats(func(int) error {
		finish := q.rec.Span("executor:"+j.spec.Name, worker)
		defer finish()
		var err error
		out, err = guarded(j.deadline, what, call)
		return err
	})
	if rs.Attempts > 1 {
		q.mRetries.Add(int64(rs.Attempts - 1))
	}
	return out, rs, err
}

// runSlot fills slot g from one single-circuit execution under its own
// retry envelope: the slot's Result on success, its error otherwise.
func (q *QPM) runSlot(j *job, g int, what, worker string, call func() (ExecResult, error)) {
	started := time.Now()
	res, rs, err := attempt(q, j, what, worker, call)
	if err != nil {
		j.errs[g] = err.Error()
		return
	}
	j.results[g] = q.result(j, g, res, started, time.Since(started), rs)
}

// runChunk executes bindings[lo:hi] of a batch on one QRC worker:
// batch-native executors get the whole chunk in one call (rebinding into
// their cached parse per element); plain executors fall back to bind →
// serialize → Execute per element through the QPM's own parse cache.
func (q *QPM) runChunk(j *job, lo, hi int, worker string) {
	// Element seeds are globally indexed: the chunk base offset keeps seeds
	// identical to a serial loop over the full batch.
	chunkOpts := j.opts.ForElement(lo)
	elemWhat := func(g int) string { return fmt.Sprintf("exec-batch:%s[%d]", j.spec.Name, g) }
	be, native := q.exec.(BatchExecutor)
	if !native {
		base, err := q.cache.Get(j.spec)
		if err != nil {
			for g := lo; g < hi; g++ {
				j.errs[g] = err.Error()
			}
			return
		}
		for g := lo; g < hi; g++ {
			spec, err := SpecFromCircuit(base.Bind(j.bindings[g]))
			if err != nil {
				j.errs[g] = err.Error()
				continue
			}
			q.runSlot(j, g, elemWhat(g), worker, func() (ExecResult, error) {
				return q.exec.Execute(spec, chunkOpts.ForElement(g-lo))
			})
		}
		return
	}
	sub := j.bindings[lo:hi]
	started := time.Now()
	execFinish := q.rec.Span("executor:"+j.spec.Name, worker)
	results, err := guarded(j.deadline, fmt.Sprintf("exec-batch:%s[%d:%d]", j.spec.Name, lo, hi), func() ([]ExecResult, error) {
		return be.ExecuteBatch(j.spec, sub, chunkOpts)
	})
	execFinish()
	elapsed := time.Since(started)
	if err == nil && len(results) != len(sub) {
		err = fmt.Errorf("qpm[%s]: batch executor returned %d results for %d bindings", q.backend, len(results), len(sub))
	}
	if err == nil {
		perElem := elapsed / time.Duration(len(sub))
		for i, res := range results {
			j.results[lo+i] = q.result(j, lo+i, res, started, perElem, faults.RetryStats{Attempts: 1})
		}
		return
	}
	// A failing chunk degrades to element-isolated re-execution: each
	// binding retries as its own single-element batch, so one bad element
	// costs only itself instead of aborting every slot. Seeds stay globally
	// indexed (ForElement(g) here equals base+lo+i on the whole-chunk path),
	// so elements that recover produce bit-identical results to a clean run;
	// elements that keep failing record only their own error.
	for g := lo; g < hi; g++ {
		q.runSlot(j, g, elemWhat(g), worker, func() (ExecResult, error) {
			one, err := be.ExecuteBatch(j.spec, j.bindings[g:g+1], j.opts.ForElement(g))
			if err == nil && len(one) != 1 {
				err = fmt.Errorf("qpm[%s]: batch executor returned %d results for 1 binding", q.backend, len(one))
			}
			if err != nil {
				return ExecResult{}, err
			}
			return one[0], nil
		})
	}
}

// result marshals one slot's ExecResult into the unified format and feeds
// its timings to the histograms. ExecMS for batch-native chunks is the chunk
// mean (elements share one executor call); retry backoff is split out of it
// so TotalMS is the exact sum of the reported components.
func (q *QPM) result(j *job, g int, res ExecResult, started time.Time, exec time.Duration, rs faults.RetryStats) *Result {
	taskID := j.id
	if j.kind == kindBatch {
		taskID = fmt.Sprintf("%s#%d", j.id, g)
	}
	tm := taskTimings(j.created, started, started.Add(exec), rs)
	q.observeTimings(tm)
	return &Result{
		TaskID:     taskID,
		Backend:    q.backend,
		Subbackend: j.opts.Subbackend,
		Counts:     res.Counts,
		ExpVal:     res.ExpVal,
		TruncErr:   res.TruncErr,
		Extra:      res.Extra,
		Route:      res.Route,
		Timings:    tm,
	}
}

// await blocks until job id of the given kind completes; an id of another
// kind is as unknown to the caller as one that was never issued.
func (q *QPM) await(id string, kind *jobKind) (*job, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok || j.kind != kind {
		return nil, fmt.Errorf("qpm[%s]: unknown %s %s", q.backend, kind.noun, id)
	}
	<-j.done
	return j, nil
}

// Wait blocks until the task completes and returns its result.
func (q *QPM) Wait(id string) (*Result, error) {
	j, err := q.await(id, kindSingle)
	if err != nil {
		return nil, err
	}
	return j.results[0], j.failure()
}

// WaitBatch blocks until every element of the batch completes and returns
// the ordered results plus per-element error strings ("" for success).
func (q *QPM) WaitBatch(id string) ([]*Result, []string, error) {
	j, err := q.await(id, kindBatch)
	if err != nil {
		return nil, nil, err
	}
	return j.results, j.errs, nil
}

// WaitGradient blocks until the gradient batch completes and returns the
// ordered per-binding results.
func (q *QPM) WaitGradient(id string) ([]GradResult, error) {
	j, err := q.await(id, kindGradient)
	if err != nil {
		return nil, err
	}
	return j.grads, j.failure()
}

// deadlinePassed reports whether a deadline exists and has expired.
func deadlinePassed(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// List returns every job ID with its state.
func (q *QPM) List() map[string]Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]Status, len(q.jobs))
	for id, j := range q.jobs {
		j.mu.Lock()
		out[id] = j.status
		j.mu.Unlock()
	}
	return out
}

// ---- DEFw RPC surface -------------------------------------------------

// submitReq is the payload of every exec* method: one spec, the options,
// and for the batch and gradient methods K bindings.
type submitReq struct {
	Spec     CircuitSpec `json:"spec"`
	Bindings []Bindings  `json:"bindings,omitempty"`
	Opts     RunOptions  `json:"opts"`
}

// batchReply is the reply of "exec_batch": ordered results with parallel
// per-element error strings ("" for success, nil Result on failure).
type batchReply struct {
	Results []*Result `json:"results"`
	Errs    []string  `json:"errs,omitempty"`
}

// gradReply is the reply of "exec_grad": one GradResult per binding.
type gradReply struct {
	Results []GradResult `json:"results"`
}

// rpcMethods builds the RPC method table, one typed entry per method over
// the defw JSON codec: the blocking one-round-trip exec* methods, which reap
// their job before replying, and the table and capability queries. A client
// that wants asynchrony keeps an exec* call in flight (see Frontend.RunAsync).
func (q *QPM) rpcMethods() map[string]func(payload []byte) ([]byte, error) {
	who := fmt.Sprintf("qpm[%s]", q.backend)
	return map[string]func([]byte) ([]byte, error){
		"exec": defw.HandleJSON(who, func(r submitReq) (*Result, error) { return q.Exec(r.Spec, r.Opts) }),
		"exec_batch": defw.HandleJSON(who, func(r submitReq) (batchReply, error) {
			results, errs, err := q.ExecBatch(r.Spec, r.Bindings, r.Opts)
			return batchReply{Results: results, Errs: errs}, err
		}),
		"exec_grad": defw.HandleJSON(who, func(r submitReq) (gradReply, error) {
			results, err := q.ExecGradient(r.Spec, r.Bindings, r.Opts)
			return gradReply{Results: results}, err
		}),
		"list":         defw.HandleJSON(who, func(struct{}) (map[string]Status, error) { return q.List(), nil }),
		"capabilities": defw.HandleJSON(who, func(struct{}) (Capabilities, error) { return q.Capabilities(), nil }),
	}
}

// Handle implements defw.Handler, exposing the QPM API over RPC: it
// dispatches through the method table rpcMethods built.
func (q *QPM) Handle(method string, payload []byte) ([]byte, error) {
	h, ok := q.methods[method]
	if !ok {
		return nil, fmt.Errorf("qpm[%s]: unknown method %q", q.backend, method)
	}
	return h(payload)
}
