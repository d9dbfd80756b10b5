package core

import (
	"strings"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/defw"
	"qfw/internal/faults"
	"qfw/internal/trace"
)

// batchOf builds K bindings over the shared test ansatz.
func batchOf(k int) []Bindings {
	bindings := make([]Bindings, k)
	for i := range bindings {
		bindings[i] = Bindings{"theta": float64(i) / 100}
	}
	return bindings
}

// runFullBatch submits one batch and waits for it.
func runFullBatch(t *testing.T, q *QPM, spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]*Result, []string) {
	t.Helper()
	id, err := q.SubmitBatch(spec, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, err := q.WaitBatch(id)
	if err != nil {
		t.Fatal(err)
	}
	return results, errs
}

// TestBatchFaultRecoveryBitIdentical is the acceptance criterion: a 20%
// transient failure schedule over a 64-element batch must recover to
// results bit-identical to a clean run — retries plus element-isolated
// degradation, zero slots lost to chunk aborts.
func TestBatchFaultRecoveryBitIdentical(t *testing.T) {
	spec, err := SpecFromParametric(parametricAnsatz(t))
	if err != nil {
		t.Fatal(err)
	}
	const K = 64
	opts := RunOptions{Seed: 100}

	clean := NewQPM(newParamExec("px"), 4, trace.NewRecorder())
	defer clean.Close()
	cleanRes, cleanErrs := runFullBatch(t, clean, spec, batchOf(K), opts)
	for i, e := range cleanErrs {
		if e != "" {
			t.Fatalf("clean element %d failed: %s", i, e)
		}
	}

	inj := faults.NewInjector(faults.Schedule{Rate: 0.2, Times: 1, Seed: 3})
	faulty := NewQPM(NewFaultyExecutor(newParamExec("px"), inj), 4, trace.NewRecorder())
	defer faulty.Close()
	faultyRes, faultyErrs := runFullBatch(t, faulty, spec, batchOf(K), opts)

	if inj.Injected() == 0 {
		t.Fatal("schedule injected nothing — test exercises no recovery")
	}
	for i, e := range faultyErrs {
		if e != "" {
			t.Fatalf("element %d failed despite retries: %s", i, e)
		}
		if strings.Contains(e, "batch aborted") {
			t.Fatalf("element %d carries a chunk abort: %s", i, e)
		}
		if faultyRes[i] == nil || cleanRes[i] == nil {
			t.Fatalf("element %d missing a result", i)
		}
		for key, want := range cleanRes[i].Extra {
			if got := faultyRes[i].Extra[key]; got != want {
				t.Fatalf("element %d %s: faulted run %v, clean run %v", i, key, got, want)
			}
		}
	}
}

// TestPanicIsolationRecovers: an executor panic becomes a transient error
// inside the worker, the retry succeeds, and the daemon never crashes.
func TestPanicIsolationRecovers(t *testing.T) {
	inj := faults.NewInjector(faults.Schedule{Rate: 1, Times: 1, Mode: "panic"})
	q := NewQPM(NewFaultyExecutor(&fakeExec{name: "fake"}, inj), 2, trace.NewRecorder())
	defer q.Close()
	id, err := q.Submit(bell(t), RunOptions{Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Wait(id)
	if err != nil {
		t.Fatalf("panic not recovered: %v", err)
	}
	if res.Counts["00"] != 5 {
		t.Fatalf("result after recovery: %+v", res)
	}
	if inj.Injected() != 1 {
		t.Fatalf("injected %d panics", inj.Injected())
	}
}

// TestPanicIsolationPersistent: a deterministic panic exhausts the retry
// budget into a per-task error — and the QPM keeps serving new work.
func TestPanicIsolationPersistent(t *testing.T) {
	inj := faults.NewInjector(faults.Schedule{Rate: 1, Times: -1, Mode: "panic"})
	fe := NewFaultyExecutor(&fakeExec{name: "fake"}, inj)
	q := NewQPM(fe, 2, trace.NewRecorder())
	defer q.Close()
	id, err := q.Submit(bell(t), RunOptions{Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(id); err == nil || !strings.Contains(err.Error(), "executor panic") {
		t.Fatalf("want executor panic error, got %v", err)
	}
	if got := inj.Injected(); got != int64(DefaultRetryPolicy().MaxAttempts) {
		t.Fatalf("panicked %d times, want one per attempt", got)
	}
	// The worker pool survived: a clean submission still executes.
	inj.Close()
	healthy := NewFaultyExecutor(&fakeExec{name: "fake"}, faults.NewInjector(faults.Schedule{Rate: 0, Nth: 1 << 30}))
	q2 := NewQPM(healthy, 2, trace.NewRecorder())
	defer q2.Close()
	id2, err := q2.Submit(bell(t), RunOptions{Shots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Wait(id2); err != nil {
		t.Fatal(err)
	}
}

// TestHungExecutorDeadline is the second acceptance criterion: a hung
// executor call returns a typed ErrDeadlineExceeded within 2× the
// configured deadline, and the worker slot frees for new work.
func TestHungExecutorDeadline(t *testing.T) {
	// One hang: the abandoned goroutine stays blocked on the consumed
	// fault (released at cleanup) while follow-up work runs clean.
	inj := faults.NewInjector(faults.Schedule{Rate: 1, Times: 1, Mode: "hang"})
	defer inj.Close()
	q := NewQPM(NewFaultyExecutor(&fakeExec{name: "fake"}, inj), 1, trace.NewRecorder())
	defer q.Close()

	const deadlineMS = 50
	start := time.Now()
	id, err := q.Submit(bell(t), RunOptions{Shots: 1, TimeoutMS: deadlineMS})
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.Wait(id)
	elapsed := time.Since(start)
	if err == nil || !IsDeadlineExceeded(err) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if elapsed > 2*deadlineMS*time.Millisecond {
		t.Fatalf("deadline enforced after %s (limit %dms)", elapsed, 2*deadlineMS)
	}
	// The single worker abandoned the hung call — it must pick up new work
	// even though the first executor goroutine is still blocked.
	id2, err := q.Submit(bell(t), RunOptions{Shots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(id2); err != nil {
		t.Fatalf("worker slot not freed: %v", err)
	}
}

// TestDeadlineSurvivesRPC: the typed error classification must survive the
// DEFw flattening to a string, exactly like ErrOverloaded does.
func TestDeadlineSurvivesRPC(t *testing.T) {
	inj := faults.NewInjector(faults.Schedule{Rate: 1, Times: -1, Mode: "hang"})
	defer inj.Close()
	q := NewQPM(NewFaultyExecutor(&fakeExec{name: "hangy"}, inj), 1, trace.NewRecorder())
	defer q.Close()
	server := defw.NewServer()
	server.Register(ServiceName("hangy"), q)
	client := defw.NewPipeClient(server)
	defer func() { client.Close(); server.Close() }()
	front, err := NewFrontend(client, Properties{Backend: "hangy"})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(2)
	c.H(0).CX(0, 1).MeasureAll()
	_, err = front.Run(c, RunOptions{Shots: 1, TimeoutMS: 40})
	if err == nil || !IsDeadlineExceeded(err) {
		t.Fatalf("flattened error lost deadline classification: %v", err)
	}
}

// TestGradientRetryRecovers: a transient gradient failure re-executes the
// whole gradient work item and succeeds.
func TestGradientRetryRecovers(t *testing.T) {
	inj := faults.NewInjector(faults.Schedule{Rate: 1, Times: 1, Seed: 2})
	inner := &fakeGradExec{fakeExec: fakeExec{name: "fake"}}
	q := NewQPM(NewFaultyExecutor(inner, inj), 2, trace.NewRecorder())
	defer q.Close()
	spec, err := SpecFromParametric(parametricAnsatz(t))
	if err != nil {
		t.Fatal(err)
	}
	id, err := q.SubmitGradient(spec, batchOf(3), RunOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	grads, err := q.WaitGradient(id)
	if err != nil {
		t.Fatalf("gradient retry failed: %v", err)
	}
	if len(grads) != 3 {
		t.Fatalf("got %d gradients", len(grads))
	}
	if inj.Injected() != 1 {
		t.Fatalf("injected %d faults", inj.Injected())
	}
}

// TestAutoFallbackReroute: when the chosen engine fails at execution time
// the submission re-routes to the next candidate, annotated in Route. Bell
// is Clifford, so the failing aer (its stabilizer engine) is the primary.
func TestAutoFallbackReroute(t *testing.T) {
	bad := &fakeExec{name: "aer", fail: true}
	good := &fakeExec{name: "nwqsim"}
	a := NewAutoExecutor(map[string]Executor{"aer": bad, "nwqsim": good})
	res, err := a.Execute(bell(t), RunOptions{Shots: 4})
	if err != nil {
		t.Fatalf("fallback did not rescue the submission: %v", err)
	}
	if !strings.HasPrefix(res.Route, "fallback:nwqsim") {
		t.Fatalf("route %q does not record the fallback", res.Route)
	}
	if bad.callCount() == 0 || good.callCount() == 0 {
		t.Fatalf("calls: aer=%d nwqsim=%d", bad.callCount(), good.callCount())
	}
}

// TestLaunchArmsQFWFaults: an armed QFW_FAULTS schedule wraps every
// launched backend in the injector, and the retry layer still delivers
// results end to end through the RPC surface.
func TestLaunchArmsQFWFaults(t *testing.T) {
	t.Setenv(faults.EnvVar, "rate=1,times=1,seed=4")
	registerFake("fake-ft")
	s, err := Launch(Config{
		Machine:  cluster.Frontier(2),
		Workers:  2,
		Backends: []string{"fake-ft"},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Teardown()
	fe, ok := s.Executor("fake-ft").(*FaultyExecutor)
	if !ok {
		t.Fatalf("executor not wrapped: %T", s.Executor("fake-ft"))
	}
	front, err := s.Frontend(Properties{Backend: "fake-ft"})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(2)
	c.H(0).CX(0, 1).MeasureAll()
	res, err := front.Run(c, RunOptions{Shots: 6})
	if err != nil {
		t.Fatalf("injected fault not retried away: %v", err)
	}
	if res.Counts["00"] != 6 {
		t.Fatalf("result %+v", res)
	}
	if fe.Injector().Injected() == 0 {
		t.Fatal("schedule never fired")
	}
}
