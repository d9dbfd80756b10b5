package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qfw/internal/faults"
	"qfw/internal/trace"
)

// task is one circuit-execution job tracked by a QPM.
type task struct {
	id       string
	spec     CircuitSpec
	opts     RunOptions
	deadline time.Time // zero = none; from RunOptions.TimeoutMS at creation

	mu        sync.Mutex
	status    Status
	cancelled bool
	result    *Result
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{}
}

func (t *task) snapshotStatus() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// batchTask is one parametric batch: a single transmitted spec plus K
// parameter bindings, fanned across the QRC workers in contiguous chunks
// and reassembled in order.
type batchTask struct {
	id       string
	spec     CircuitSpec
	bindings []Bindings
	opts     RunOptions
	created  time.Time
	deadline time.Time

	mu        sync.Mutex
	status    Status
	cancelled bool
	results   []*Result
	errs      []string
	pending   int
	done      chan struct{}
}

func (bt *batchTask) snapshotStatus() Status {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return bt.status
}

// gradTask is one gradient batch: a single parametric spec plus K bindings,
// evaluated through the backend's GradientExecutor as one work item (the
// adjoint engine fans bindings across its own worker pool).
type gradTask struct {
	id       string
	created  time.Time
	deadline time.Time

	mu        sync.Mutex
	status    Status
	cancelled bool
	results   []GradResult
	errMsg    string
	done      chan struct{}
}

func (gt *gradTask) snapshotStatus() Status {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	return gt.status
}

// QPM is a Quantum Platform Manager service instance for one backend: it
// owns the task queue and circuit lifecycle and dispatches work round-robin
// to its QRC worker threads. Work items are closures, so single tasks and
// batch chunks share the same queue and worker pool.
type QPM struct {
	backend  string
	exec     Executor
	rec      *trace.Recorder
	cache    *ParseCache
	queue    chan func(worker string)
	queueCap int
	nextID   atomic.Int64
	inflight atomic.Int64 // queued + running work items
	busyNS   atomic.Int64 // cumulative worker busy time (utilization source)
	mu       sync.Mutex
	tasks    map[string]*task
	batches  map[string]*batchTask
	grads    map[string]*gradTask
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
		backend:  exec.Name(),
		exec:     exec,
		rec:      rec,
		cache:    NewParseCache(),
		queue:    make(chan func(worker string), queueCap),
		queueCap: queueCap,
		tasks:    make(map[string]*task),
		batches:  make(map[string]*batchTask),
		grads:    make(map[string]*gradTask),
		workers:  workers,
		retry:    DefaultRetryPolicy(),
	}
	met := rec.Metrics()
	q.mTasks = met.Counter(trace.LabeledName("qfw_qpm_tasks_total", "backend", q.backend))
	q.mFails = met.Counter(trace.LabeledName("qfw_qpm_failures_total", "backend", q.backend))
	q.mRetries = met.Counter(trace.LabeledName("qfw_qpm_retries_total", "backend", q.backend))
	q.hQueue = met.Histogram(trace.LabeledName("qfw_qpm_queue_ms", "backend", q.backend))
	q.hExec = met.Histogram(trace.LabeledName("qfw_qpm_exec_ms", "backend", q.backend))
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
// disables retrying). Tests and the fault-injection bench use it to
// toggle the recovery machinery; it applies to work submitted afterwards.
func (q *QPM) SetRetryPolicy(p faults.Policy) {
	q.mu.Lock()
	q.retry = p
	q.mu.Unlock()
}

func (q *QPM) retryPolicy() faults.Policy {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.retry
}

// deadlineFor converts RunOptions.TimeoutMS into an absolute deadline
// anchored at submission, so queue wait counts against the budget.
func deadlineFor(created time.Time, opts RunOptions) time.Time {
	if opts.TimeoutMS <= 0 {
		return time.Time{}
	}
	return created.Add(time.Duration(opts.TimeoutMS) * time.Millisecond)
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
	if !deadline.IsZero() && !time.Now().Before(deadline) {
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

// execGuarded is one single-circuit execution under the full fault
// envelope: panic isolation, deadline, and transient retry. Each attempt
// records an "executor:" span on the worker's row (nesting under the
// caller's "exec:" span in the Chrome trace), and the returned RetryStats
// separate backoff time from execution time in the Timings breakdown.
func (q *QPM) execGuarded(spec CircuitSpec, opts RunOptions, deadline time.Time, what, worker string) (ExecResult, faults.RetryStats, error) {
	var res ExecResult
	rs, err := q.retryPolicy().DoStats(func(int) error {
		finish := q.rec.Span("executor:"+spec.Name, worker)
		defer finish()
		var err error
		res, err = guarded(deadline, what, func() (ExecResult, error) {
			return q.exec.Execute(spec, opts)
		})
		return err
	})
	if rs.Attempts > 1 {
		q.mRetries.Add(int64(rs.Attempts - 1))
	}
	return res, rs, err
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
	if q.closed {
		return fmt.Errorf("qpm[%s]: closed", q.backend)
	}
	if q.quiesced {
		return fmt.Errorf("qpm[%s]: %w", q.backend, ErrDraining)
	}
	select {
	case q.queue <- job:
		q.inflight.Add(1)
		return nil
	default:
		return fmt.Errorf("qpm[%s]: queue full", q.backend)
	}
}

// Quiesce closes admission without stopping the workers: subsequent Create
// and Submit* calls fail with ErrDraining while already-queued work keeps
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

// runTask executes one single-circuit task on a QRC worker.
func (q *QPM) runTask(t *task, worker string) {
	t.mu.Lock()
	if t.cancelled {
		// Deleted while queued: the work item reaches a worker but must not
		// trigger a backend execution.
		t.status = StatusFailed
		t.errMsg = "cancelled"
		close(t.done)
		t.mu.Unlock()
		return
	}
	t.status = StatusRunning
	t.started = time.Now()
	t.mu.Unlock()

	finish := q.rec.Span("exec:"+t.spec.Name, worker)
	res, rs, err := q.execGuarded(t.spec, t.opts, t.deadline, "exec:"+t.spec.Name, worker)
	finish()

	t.mu.Lock()
	t.finished = time.Now()
	if err != nil {
		t.status = StatusFailed
		t.errMsg = err.Error()
		q.mFails.Inc()
	} else {
		t.status = StatusDone
		tm := taskTimings(t.created, t.started, t.finished, rs)
		q.observeTimings(tm)
		t.result = &Result{
			TaskID:     t.id,
			Backend:    q.backend,
			Subbackend: t.opts.Subbackend,
			Counts:     res.Counts,
			ExpVal:     res.ExpVal,
			TruncErr:   res.TruncErr,
			Extra:      res.Extra,
			Route:      res.Route,
			Timings:    tm,
		}
	}
	close(t.done)
	t.mu.Unlock()
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

// Create registers a circuit+options as a new task without running it.
func (q *QPM) Create(spec CircuitSpec, opts RunOptions) (string, error) {
	if spec.QASM == "" {
		return "", fmt.Errorf("qpm[%s]: empty circuit spec", q.backend)
	}
	id := fmt.Sprintf("%s-%d", q.backend, q.nextID.Add(1))
	created := time.Now()
	t := &task{
		id:       id,
		spec:     spec,
		opts:     opts,
		deadline: deadlineFor(created, opts),
		status:   StatusQueued,
		created:  created,
		done:     make(chan struct{}),
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", fmt.Errorf("qpm[%s]: closed", q.backend)
	}
	if q.quiesced {
		q.mu.Unlock()
		return "", fmt.Errorf("qpm[%s]: %w", q.backend, ErrDraining)
	}
	q.tasks[id] = t
	q.mu.Unlock()
	return id, nil
}

// Run enqueues a previously created task.
func (q *QPM) Run(id string) error {
	t, err := q.lookup(id)
	if err != nil {
		return err
	}
	return q.enqueue(func(worker string) { q.runTask(t, worker) })
}

// Submit is Create followed by Run.
func (q *QPM) Submit(spec CircuitSpec, opts RunOptions) (string, error) {
	id, err := q.Create(spec, opts)
	if err != nil {
		return "", err
	}
	return id, q.Run(id)
}

// Exec is the blocking form of Submit: Submit → Wait → Delete, so it is the
// same execution path with the task reaped before the result is returned —
// on success and on failure alike. It is what the "exec" RPC serves, and
// what a synchronous caller should use: nothing is left in the task table.
func (q *QPM) Exec(spec CircuitSpec, opts RunOptions) (*Result, error) {
	id, err := q.Submit(spec, opts)
	if id != "" { // Submit names the task even when enqueueing it failed
		defer q.reap(id)
	}
	if err != nil {
		return nil, err
	}
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

// reap deletes a work item its blocking caller has waited out. A finished
// or never-enqueued item always deletes; the one possible error is that a
// client already deleted it by id, which leaves nothing to do.
func (q *QPM) reap(id string) { _ = q.Delete(id) }

// SubmitBatch registers and enqueues one parametric batch: a single spec
// plus K bindings. Batch-native executors receive the whole batch as one
// work item (so e.g. the cloud backend really maps it onto one REST job
// array and parallelism is the executor's choice); executors without batch
// support are fanned across the QRC workers in contiguous chunks. Results
// come back ordered via WaitBatch. Chunks that cannot be enqueued (queue
// full) fail their elements instead of failing the whole batch.
func (q *QPM) SubmitBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) (string, error) {
	if spec.QASM == "" {
		return "", fmt.Errorf("qpm[%s]: empty circuit spec", q.backend)
	}
	if len(bindings) == 0 {
		return "", fmt.Errorf("qpm[%s]: empty batch", q.backend)
	}
	id := fmt.Sprintf("%s-batch-%d", q.backend, q.nextID.Add(1))
	k := len(bindings)
	nchunks := 1
	if _, ok := q.exec.(BatchExecutor); !ok {
		nchunks = q.workers
		if nchunks > k {
			nchunks = k
		}
	}
	created := time.Now()
	bt := &batchTask{
		id:       id,
		spec:     spec,
		bindings: bindings,
		opts:     opts,
		created:  created,
		deadline: deadlineFor(created, opts),
		status:   StatusQueued,
		results:  make([]*Result, k),
		errs:     make([]string, k),
		pending:  nchunks,
		done:     make(chan struct{}),
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", fmt.Errorf("qpm[%s]: closed", q.backend)
	}
	if q.quiesced {
		q.mu.Unlock()
		return "", fmt.Errorf("qpm[%s]: %w", q.backend, ErrDraining)
	}
	q.batches[id] = bt
	q.mu.Unlock()
	for w := 0; w < nchunks; w++ {
		lo, hi := w*k/nchunks, (w+1)*k/nchunks
		if err := q.enqueue(func(worker string) { q.runBatchChunk(bt, lo, hi, worker) }); err != nil {
			for i := lo; i < hi; i++ {
				bt.errs[i] = err.Error()
			}
			q.finishChunk(bt)
		}
	}
	return id, nil
}

// runBatchChunk executes bindings[lo:hi] of a batch on one QRC worker:
// batch-native executors get the whole chunk in one call (rebinding into
// their cached parse per element); plain executors fall back to bind →
// serialize → Execute per element through the QPM's own parse cache.
func (q *QPM) runBatchChunk(bt *batchTask, lo, hi int, worker string) {
	bt.mu.Lock()
	if bt.cancelled {
		// The batch was deleted while this chunk sat in the queue: fail its
		// elements without touching the backend.
		for i := lo; i < hi; i++ {
			bt.errs[i] = "cancelled"
		}
		bt.mu.Unlock()
		q.finishChunk(bt)
		return
	}
	if bt.status == StatusQueued {
		bt.status = StatusRunning
	}
	bt.mu.Unlock()
	started := time.Now()
	finish := q.rec.Span(fmt.Sprintf("exec-batch:%s[%d:%d]", bt.spec.Name, lo, hi), worker)
	defer func() {
		finish()
		q.finishChunk(bt)
	}()
	sub := bt.bindings[lo:hi]
	// Element seeds are globally indexed: the chunk base offset keeps seeds
	// identical to a serial loop over the full batch.
	chunkOpts := bt.opts.ForElement(lo)
	if be, ok := q.exec.(BatchExecutor); ok {
		execFinish := q.rec.Span("executor:"+bt.spec.Name, worker)
		results, err := guarded(bt.deadline, fmt.Sprintf("exec-batch:%s[%d:%d]", bt.spec.Name, lo, hi), func() ([]ExecResult, error) {
			return be.ExecuteBatch(bt.spec, sub, chunkOpts)
		})
		execFinish()
		elapsed := time.Since(started)
		if err == nil && len(results) != len(sub) {
			err = fmt.Errorf("qpm[%s]: batch executor returned %d results for %d bindings", q.backend, len(results), len(sub))
		}
		if err != nil {
			// A failing chunk degrades to element-isolated re-execution: each
			// binding retries as its own single-element batch, so one bad
			// element costs only itself instead of aborting every slot.
			q.runElements(bt, be, lo, hi, worker)
			return
		}
		perElem := elapsed / time.Duration(len(sub))
		for i, res := range results {
			bt.results[lo+i] = q.batchResult(bt, lo+i, res, started, perElem, faults.RetryStats{Attempts: 1})
		}
		return
	}
	base, err := q.cache.Get(bt.spec)
	if err != nil {
		for i := range sub {
			bt.errs[lo+i] = err.Error()
		}
		return
	}
	for i, b := range sub {
		bound := base.Bind(b)
		spec, err := SpecFromCircuit(bound)
		if err != nil {
			bt.errs[lo+i] = err.Error()
			continue
		}
		elemStart := time.Now()
		res, rs, err := q.execGuarded(spec, chunkOpts.ForElement(i), bt.deadline, fmt.Sprintf("exec-batch:%s[%d]", bt.spec.Name, lo+i), worker)
		if err != nil {
			bt.errs[lo+i] = err.Error()
			continue
		}
		bt.results[lo+i] = q.batchResult(bt, lo+i, res, elemStart, time.Since(elemStart), rs)
	}
}

// runElements is the degraded path after a batch-native chunk failure:
// bindings[lo:hi] re-execute as single-element batches, each under its own
// retry envelope. Seeds stay globally indexed (ForElement(g) here equals
// base+lo+i on the whole-chunk path), so elements that recover produce
// bit-identical results to a clean run; elements that keep failing record
// only their own error.
func (q *QPM) runElements(bt *batchTask, be BatchExecutor, lo, hi int, worker string) {
	retry := q.retryPolicy()
	for g := lo; g < hi; g++ {
		elemOpts := bt.opts.ForElement(g)
		elemStart := time.Now()
		var res ExecResult
		rs, err := retry.DoStats(func(int) error {
			finish := q.rec.Span("executor:"+bt.spec.Name, worker)
			defer finish()
			results, err := guarded(bt.deadline, fmt.Sprintf("exec-batch:%s[%d]", bt.spec.Name, g), func() ([]ExecResult, error) {
				return be.ExecuteBatch(bt.spec, bt.bindings[g:g+1], elemOpts)
			})
			if err != nil {
				return err
			}
			if len(results) != 1 {
				return fmt.Errorf("qpm[%s]: batch executor returned %d results for 1 binding", q.backend, len(results))
			}
			res = results[0]
			return nil
		})
		if rs.Attempts > 1 {
			q.mRetries.Add(int64(rs.Attempts - 1))
		}
		if err != nil {
			bt.errs[g] = err.Error()
			continue
		}
		bt.results[g] = q.batchResult(bt, g, res, elemStart, time.Since(elemStart), rs)
	}
}

// batchResult marshals one batch element's ExecResult into the unified
// format. ExecMS for batch-native chunks is the chunk mean (elements share
// one executor call); retry backoff is split out of it so TotalMS is the
// exact sum of the reported components.
func (q *QPM) batchResult(bt *batchTask, idx int, res ExecResult, started time.Time, exec time.Duration, rs faults.RetryStats) *Result {
	tm := taskTimings(bt.created, started, started.Add(exec), rs)
	q.observeTimings(tm)
	return &Result{
		TaskID:     fmt.Sprintf("%s#%d", bt.id, idx),
		Backend:    q.backend,
		Subbackend: bt.opts.Subbackend,
		Counts:     res.Counts,
		ExpVal:     res.ExpVal,
		TruncErr:   res.TruncErr,
		Extra:      res.Extra,
		Route:      res.Route,
		Timings:    tm,
	}
}

// SubmitGradient registers and enqueues one gradient batch. The backend
// must implement GradientExecutor — callers probe Capabilities.Gradients
// first; a submit against a non-differentiating backend fails immediately
// rather than queueing doomed work.
func (q *QPM) SubmitGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) (string, error) {
	ge, ok := q.exec.(GradientExecutor)
	if !ok {
		return "", fmt.Errorf("qpm[%s]: backend does not support gradient execution", q.backend)
	}
	if spec.QASM == "" {
		return "", fmt.Errorf("qpm[%s]: empty circuit spec", q.backend)
	}
	if len(bindings) == 0 {
		return "", fmt.Errorf("qpm[%s]: empty gradient batch", q.backend)
	}
	id := fmt.Sprintf("%s-grad-%d", q.backend, q.nextID.Add(1))
	created := time.Now()
	gt := &gradTask{id: id, created: created, deadline: deadlineFor(created, opts), status: StatusQueued, done: make(chan struct{})}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", fmt.Errorf("qpm[%s]: closed", q.backend)
	}
	if q.quiesced {
		q.mu.Unlock()
		return "", fmt.Errorf("qpm[%s]: %w", q.backend, ErrDraining)
	}
	q.grads[id] = gt
	q.mu.Unlock()
	err := q.enqueue(func(worker string) {
		gt.mu.Lock()
		if gt.cancelled {
			gt.status = StatusFailed
			gt.errMsg = "cancelled"
			close(gt.done)
			gt.mu.Unlock()
			return
		}
		gt.status = StatusRunning
		gt.mu.Unlock()
		started := time.Now()
		finish := q.rec.Span("exec-grad:"+spec.Name, worker)
		var results []GradResult
		rs, err := q.retryPolicy().DoStats(func(int) error {
			attemptFinish := q.rec.Span("executor:"+spec.Name, worker)
			defer attemptFinish()
			var err error
			results, err = guarded(gt.deadline, "exec-grad:"+spec.Name, func() ([]GradResult, error) {
				return ge.ExecuteGradient(spec, bindings, opts)
			})
			return err
		})
		finish()
		if rs.Attempts > 1 {
			q.mRetries.Add(int64(rs.Attempts - 1))
		}
		gt.mu.Lock()
		if err != nil {
			gt.status = StatusFailed
			gt.errMsg = err.Error()
			q.mFails.Inc()
		} else {
			gt.status = StatusDone
			gt.results = results
			q.observeTimings(taskTimings(gt.created, started, time.Now(), rs))
		}
		close(gt.done)
		gt.mu.Unlock()
	})
	if err != nil {
		gt.mu.Lock()
		gt.status = StatusFailed
		gt.errMsg = err.Error()
		close(gt.done)
		gt.mu.Unlock()
	}
	return id, nil
}

// WaitGradient blocks until the gradient batch completes and returns the
// ordered per-binding results.
func (q *QPM) WaitGradient(id string) ([]GradResult, error) {
	return q.WaitGradientCtx(context.Background(), id)
}

// WaitGradientCtx is WaitGradient with caller-side cancellation: when ctx
// ends first the wait returns ctx's error while the work item keeps
// running (use Delete on an expired deadline to reclaim the slot).
func (q *QPM) WaitGradientCtx(ctx context.Context, id string) ([]GradResult, error) {
	q.mu.Lock()
	gt, ok := q.grads[id]
	q.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("qpm[%s]: unknown gradient task %s", q.backend, id)
	}
	select {
	case <-gt.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("qpm[%s]: wait %s: %w", q.backend, id, ctx.Err())
	}
	gt.mu.Lock()
	defer gt.mu.Unlock()
	if gt.status == StatusFailed {
		return nil, fmt.Errorf("%s", gt.errMsg)
	}
	return gt.results, nil
}

func (q *QPM) finishChunk(bt *batchTask) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	bt.pending--
	if bt.pending > 0 {
		return
	}
	bt.status = StatusDone
	var failed int64
	for _, e := range bt.errs {
		if e != "" {
			failed++
		}
	}
	if failed > 0 {
		bt.status = StatusFailed
		q.mFails.Add(failed)
	}
	close(bt.done)
}

// WaitBatch blocks until every element of the batch completes and returns
// the ordered results plus per-element error strings ("" for success).
func (q *QPM) WaitBatch(id string) ([]*Result, []string, error) {
	return q.WaitBatchCtx(context.Background(), id)
}

// WaitBatchCtx is WaitBatch with caller-side cancellation.
func (q *QPM) WaitBatchCtx(ctx context.Context, id string) ([]*Result, []string, error) {
	bt, err := q.lookupBatch(id)
	if err != nil {
		return nil, nil, err
	}
	select {
	case <-bt.done:
	case <-ctx.Done():
		return nil, nil, fmt.Errorf("qpm[%s]: wait %s: %w", q.backend, id, ctx.Err())
	}
	return bt.results, bt.errs, nil
}

// Status returns the task (or batch / gradient batch) state.
func (q *QPM) Status(id string) (Status, error) {
	q.mu.Lock()
	t, ok := q.tasks[id]
	bt, bok := q.batches[id]
	gt, gok := q.grads[id]
	q.mu.Unlock()
	switch {
	case ok:
		return t.snapshotStatus(), nil
	case bok:
		return bt.snapshotStatus(), nil
	case gok:
		return gt.snapshotStatus(), nil
	}
	return "", fmt.Errorf("qpm[%s]: unknown task %s", q.backend, id)
}

// Wait blocks until the task completes and returns its result.
func (q *QPM) Wait(id string) (*Result, error) {
	return q.WaitCtx(context.Background(), id)
}

// WaitCtx is Wait with caller-side cancellation.
func (q *QPM) WaitCtx(ctx context.Context, id string) (*Result, error) {
	t, err := q.lookup(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("qpm[%s]: wait %s: %w", q.backend, id, ctx.Err())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status == StatusFailed {
		return nil, fmt.Errorf("%s", t.errMsg)
	}
	return t.result, nil
}

// deadlinePassed reports whether a work item's deadline exists and has
// expired — the one case where deleting a "running" item is safe: the
// guarded execution has already abandoned the backend call (or is about
// to), so removing the bookkeeping cannot orphan a live result.
func deadlinePassed(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// Delete removes a completed (or never-run) task or batch. Deleting a
// queued item cancels it: its work items still pass through the QRC queue
// but are dropped at the worker instead of executing. Running items refuse
// deletion — the execution cannot be recalled from the backend — unless
// their deadline has already passed, in which case the executor has been
// abandoned and the entry would otherwise sit orphaned in the task table.
func (q *QPM) Delete(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tasks[id]; ok {
		t.mu.Lock()
		if t.status == StatusRunning && !deadlinePassed(t.deadline) {
			t.mu.Unlock()
			return fmt.Errorf("qpm[%s]: task %s is running", q.backend, id)
		}
		if t.status == StatusQueued || t.status == StatusRunning {
			t.cancelled = true
		}
		t.mu.Unlock()
		delete(q.tasks, id)
		return nil
	}
	if bt, ok := q.batches[id]; ok {
		bt.mu.Lock()
		if bt.status == StatusRunning && !deadlinePassed(bt.deadline) {
			bt.mu.Unlock()
			return fmt.Errorf("qpm[%s]: batch %s is running", q.backend, id)
		}
		if bt.status == StatusQueued || bt.status == StatusRunning {
			bt.cancelled = true
		}
		bt.mu.Unlock()
		delete(q.batches, id)
		return nil
	}
	if gt, ok := q.grads[id]; ok {
		gt.mu.Lock()
		if gt.status == StatusRunning && !deadlinePassed(gt.deadline) {
			gt.mu.Unlock()
			return fmt.Errorf("qpm[%s]: gradient batch %s is running", q.backend, id)
		}
		if gt.status == StatusQueued || gt.status == StatusRunning {
			gt.cancelled = true
		}
		gt.mu.Unlock()
		delete(q.grads, id)
		return nil
	}
	return fmt.Errorf("qpm[%s]: unknown task %s", q.backend, id)
}

// List returns all task and batch IDs with their states.
func (q *QPM) List() map[string]Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]Status, len(q.tasks)+len(q.batches)+len(q.grads))
	for id, t := range q.tasks {
		out[id] = t.snapshotStatus()
	}
	for id, bt := range q.batches {
		out[id] = bt.snapshotStatus()
	}
	for id, gt := range q.grads {
		out[id] = gt.snapshotStatus()
	}
	return out
}

func (q *QPM) lookup(id string) (*task, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[id]
	if !ok {
		return nil, fmt.Errorf("qpm[%s]: unknown task %s", q.backend, id)
	}
	return t, nil
}

func (q *QPM) lookupBatch(id string) (*batchTask, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	bt, ok := q.batches[id]
	if !ok {
		return nil, fmt.Errorf("qpm[%s]: unknown batch %s", q.backend, id)
	}
	return bt, nil
}

// ---- DEFw RPC surface -------------------------------------------------

// submitReq is the payload of "create"/"submit" calls.
type submitReq struct {
	Spec CircuitSpec `json:"spec"`
	Opts RunOptions  `json:"opts"`
}

// batchSubmitReq is the payload of "submit_batch": one spec, K bindings.
type batchSubmitReq struct {
	Spec     CircuitSpec `json:"spec"`
	Bindings []Bindings  `json:"bindings"`
	Opts     RunOptions  `json:"opts"`
}

// batchWaitResp is the reply of "wait_batch": ordered results with parallel
// per-element error strings ("" for success, nil Result on failure).
type batchWaitResp struct {
	Results []*Result `json:"results"`
	Errs    []string  `json:"errs,omitempty"`
}

// gradWaitResp is the reply of "wait_grad": one GradResult per binding.
type gradWaitResp struct {
	Results []GradResult `json:"results"`
}

type idMsg struct {
	ID string `json:"id"`
}

type statusMsg struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
}

// Handle implements defw.Handler, exposing the QPM API over RPC: the
// blocking one-round-trip exec, exec_batch and exec_grad (which reap their
// task server-side), and the asynchronous create, run, submit, submit_batch,
// submit_grad, status, wait, wait_batch, wait_grad, delete, list,
// capabilities.
func (q *QPM) Handle(method string, payload []byte) ([]byte, error) {
	switch method {
	case "exec":
		var req submitReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
		res, err := q.Exec(req.Spec, req.Opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case "exec_batch":
		var req batchSubmitReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
		results, errs, err := q.ExecBatch(req.Spec, req.Bindings, req.Opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(batchWaitResp{Results: results, Errs: errs})
	case "exec_grad":
		var req batchSubmitReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
		results, err := q.ExecGradient(req.Spec, req.Bindings, req.Opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(gradWaitResp{Results: results})
	case "create", "submit":
		var req submitReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
		var id string
		var err error
		if method == "create" {
			id, err = q.Create(req.Spec, req.Opts)
		} else {
			id, err = q.Submit(req.Spec, req.Opts)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(idMsg{ID: id})
	case "submit_batch":
		var req batchSubmitReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
		id, err := q.SubmitBatch(req.Spec, req.Bindings, req.Opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(idMsg{ID: id})
	case "wait_batch":
		var req idMsg
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		results, errs, err := q.WaitBatch(req.ID)
		if err != nil {
			return nil, err
		}
		return json.Marshal(batchWaitResp{Results: results, Errs: errs})
	case "submit_grad":
		var req batchSubmitReq
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("qpm[%s]: bad payload: %w", q.backend, err)
		}
		id, err := q.SubmitGradient(req.Spec, req.Bindings, req.Opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(idMsg{ID: id})
	case "wait_grad":
		var req idMsg
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		results, err := q.WaitGradient(req.ID)
		if err != nil {
			return nil, err
		}
		return json.Marshal(gradWaitResp{Results: results})
	case "run":
		var req idMsg
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		if err := q.Run(req.ID); err != nil {
			return nil, err
		}
		return json.Marshal(struct{}{})
	case "status":
		var req idMsg
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		st, err := q.Status(req.ID)
		if err != nil {
			return nil, err
		}
		return json.Marshal(statusMsg{ID: req.ID, Status: st})
	case "wait":
		var req idMsg
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		res, err := q.Wait(req.ID)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case "delete":
		var req idMsg
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		if err := q.Delete(req.ID); err != nil {
			return nil, err
		}
		return json.Marshal(struct{}{})
	case "list":
		return json.Marshal(q.List())
	case "capabilities":
		return json.Marshal(q.exec.Capabilities())
	default:
		return nil, fmt.Errorf("qpm[%s]: unknown method %q", q.backend, method)
	}
}
