package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"qfw/internal/trace"
)

// batch_test.go predates the merge of the two request structs and is kept
// byte-identical to the parent; this is the name it round-trips.
type batchSubmitReq = submitReq

// kindRow drives one kind of job through the QPM's Go API; wait reports the
// wait's own error, else the job's first failed slot.
type kindRow struct {
	name   string
	submit func(q *QPM, opts RunOptions) (string, error)
	wait   func(q *QPM, id string) error
	exec   func(q *QPM, opts RunOptions) error
}

func kindRows(spec CircuitSpec) []kindRow {
	firstErr := func(errs []string, err error) error {
		for _, e := range errs {
			if err == nil && e != "" {
				err = errors.New(e)
			}
		}
		return err
	}
	two, one := []Bindings{nil, nil}, []Bindings{{"t": 0.1}}
	return []kindRow{{
		name:   "single",
		submit: func(q *QPM, o RunOptions) (string, error) { return q.Submit(spec, o) },
		wait:   func(q *QPM, id string) error { _, err := q.Wait(id); return err },
		exec:   func(q *QPM, o RunOptions) error { _, err := q.Exec(spec, o); return err },
	}, {
		name:   "batch",
		submit: func(q *QPM, o RunOptions) (string, error) { return q.SubmitBatch(spec, two, o) },
		wait:   func(q *QPM, id string) error { _, errs, err := q.WaitBatch(id); return firstErr(errs, err) },
		exec: func(q *QPM, o RunOptions) error {
			_, errs, err := q.ExecBatch(spec, two, o)
			return firstErr(errs, err)
		},
	}, {
		name:   "gradient",
		submit: func(q *QPM, o RunOptions) (string, error) { return q.SubmitGradient(spec, one, o) },
		wait:   func(q *QPM, id string) error { _, err := q.WaitGradient(id); return err },
		exec:   func(q *QPM, o RunOptions) error { _, err := q.ExecGradient(spec, one, o); return err },
	}}
}

func waitStatus(t *testing.T, q *QPM, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := q.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s is %s, never became %s", id, st, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitIdle(t *testing.T, q *QPM) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobLifecycleIsTheSameForEveryKind walks a single run, a batch and a
// gradient batch through the same lifecycle with the same assertions.
func TestJobLifecycleIsTheSameForEveryKind(t *testing.T) {
	spec := bell(t)
	rows := kindRows(spec)
	opts := RunOptions{Shots: 1}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// Queued behind a gated job: Status and List agree, Delete cancels
			// without an executor call, and the id is unknown afterwards.
			g := newGatedExec()
			q := NewQPM(g, 1, trace.NewRecorder())
			defer q.Close()
			defer g.open()
			blocker := blockWorker(t, q, spec)
			id, err := row.submit(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := q.Status(id)
			if list := q.List(); err != nil || st != StatusQueued || list[id] != st || len(list) != 2 {
				t.Fatalf("behind the blocker: Status = %s, %v; List = %v", st, err, list)
			}
			if err := q.Delete(id); err != nil {
				t.Fatalf("delete while queued: %v", err)
			}
			if _, err := q.Status(id); err == nil {
				t.Fatal("deleted job still has a status")
			}
			if err := row.wait(q, id); err == nil || !strings.Contains(err.Error(), "unknown") {
				t.Fatalf("wait after delete = %v, want unknown", err)
			}
			g.open()
			waitIdle(t, q)
			if execs, grads := g.counts(); execs != 1 || grads != 0 {
				t.Fatalf("executor saw %d runs and %d gradients, want only the blocker's run", execs, grads)
			}
			if err := q.Delete(blocker); err != nil {
				t.Fatal(err)
			}

			// Running: Delete is refused until the deadline has passed.
			g2 := newGatedExec()
			q2 := NewQPM(g2, 1, trace.NewRecorder())
			defer q2.Close()
			defer g2.open()
			timed := opts
			timed.TimeoutMS = 200
			id, err = row.submit(q2, timed)
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, q2, id, StatusRunning)
			if err := q2.Delete(id); err == nil || !strings.Contains(err.Error(), "running") {
				t.Fatalf("delete while running = %v, want refusal", err)
			}
			if err := row.wait(q2, id); !IsDeadlineExceeded(err) {
				t.Fatalf("wait on a gated job with a deadline = %v, want deadline exceeded", err)
			}
			if err := q2.Delete(id); err != nil {
				t.Fatalf("delete after the deadline: %v", err)
			}

			// Finished: the job stays, Done, until its owner deletes it; waiting
			// on its id as another kind is unknown, never a panic or a hang;
			// the blocking Exec form leaves nothing behind.
			g2.open()
			id, err = row.submit(q2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := row.wait(q2, id); err != nil {
				t.Fatal(err)
			}
			if list := q2.List(); len(list) != 1 || list[id] != StatusDone {
				t.Fatalf("finished job listed as %v, want it alone and done", list)
			}
			for k, other := range rows {
				if k == i {
					continue
				}
				if err := other.wait(q2, id); err == nil || !strings.Contains(err.Error(), "unknown") {
					t.Fatalf("%s wait on a %s id = %v, want unknown", other.name, row.name, err)
				}
			}
			if err := q2.Delete(id); err != nil {
				t.Fatal(err)
			}
			if err := row.exec(q2, opts); err != nil {
				t.Fatal(err)
			}
			if list := q2.List(); len(list) != 0 {
				t.Fatalf("job table after exec: %v, want empty", list)
			}
		})
	}
}

// TestRefusedSubmitLeavesNoJob: a submit the queue refuses returns no id, so
// it must not leave its job (and the QASM it holds) in the table either.
func TestRefusedSubmitLeavesNoJob(t *testing.T) {
	g := newGatedExec()
	q := newQPMWithQueueCap(g, 1, trace.NewRecorder(), 1)
	defer q.Close()
	defer g.open()
	spec := bell(t)
	live := map[string]bool{blockWorker(t, q, spec): true}
	payload, err := json.Marshal(submitReq{Spec: spec, Opts: RunOptions{Shots: 1}})
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for i := 0; i < 8; i++ {
		out, err := q.Handle("submit", payload)
		if err != nil {
			if !strings.Contains(err.Error(), "queue full") {
				t.Fatal(err)
			}
			refused++
			continue
		}
		var id idMsg
		if err := json.Unmarshal(out, &id); err != nil {
			t.Fatal(err)
		}
		live[id.ID] = true
	}
	if refused != 7 {
		t.Fatalf("%d of 8 submits refused, want 7 (queue of one behind a blocked worker)", refused)
	}
	list := q.List()
	if len(list) != len(live) {
		t.Fatalf("job table %v, want exactly the accepted jobs %v", list, live)
	}
	g.open()
	for id := range live {
		if _, err := q.Wait(id); err != nil {
			t.Fatal(err)
		}
		if err := q.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if list := q.List(); len(list) != 0 {
		t.Fatalf("job table after release: %v, want empty", list)
	}
	// Create + Run is the caller-holds-the-id form: a refused Run leaves the
	// task queued for another Run or a Delete.
	g3 := newGatedExec()
	q3 := newQPMWithQueueCap(g3, 1, trace.NewRecorder(), 1)
	defer q3.Close()
	defer g3.open()
	blockWorker(t, q3, spec)
	if _, err := q3.Submit(spec, RunOptions{Shots: 1}); err != nil {
		t.Fatal(err)
	}
	id, err := q3.Create(spec, RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := q3.Run(id); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("Run on a full queue = %v", err)
	}
	if st, err := q3.Status(id); err != nil || st != StatusQueued {
		t.Fatalf("refused Run left the task %s, %v; want queued", st, err)
	}
	g3.open()
	waitIdle(t, q3)
	if err := q3.Run(id); err != nil {
		t.Fatalf("second Run after the queue drained: %v", err)
	}
	if _, err := q3.Wait(id); err != nil {
		t.Fatal(err)
	}
}

// TestRunTwiceIsRefused: "run" on an id that was already run — queued,
// running or finished — must not execute it again (the second completion
// used to close the task's done channel twice and take the daemon down).
func TestRunTwiceIsRefused(t *testing.T) {
	exec := &fakeExec{name: "once"}
	q := NewQPM(exec, 2, nil)
	defer q.Close()
	id, err := q.Create(bell(t), RunOptions{Shots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Run(id); err != nil {
		t.Fatal(err)
	}
	again := q.Run(id)
	if _, err := q.Wait(id); err != nil {
		t.Fatal(err)
	}
	finished := q.Run(id)
	for _, err := range []error{again, finished} {
		if err == nil || !strings.Contains(err.Error(), "already run") {
			t.Fatalf("second Run = %v, want refusal", err)
		}
	}
	waitIdle(t, q)
	if n := exec.callCount(); n != 1 {
		t.Fatalf("executor ran %d times, want 1", n)
	}
}

func jsonKeys(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("reply %s: %v", raw, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestRPCWireShape pins what crosses the wire: payloads in the parent's
// format decode (a single request has no "bindings" key), replies keep their
// keys, and every method reports a malformed payload the same way.
func TestRPCWireShape(t *testing.T) {
	q := NewQPM(stubExec{}, 2, nil)
	defer q.Close()
	call := func(method, payload string) []byte {
		t.Helper()
		out, err := q.Handle(method, []byte(payload))
		if err != nil {
			t.Fatalf("%s %s: %v", method, payload, err)
		}
		return out
	}
	id := func(raw []byte) string {
		t.Helper()
		var m idMsg
		if err := json.Unmarshal(raw, &m); err != nil || m.ID == "" {
			t.Fatalf("id reply %s: %v", raw, err)
		}
		return fmt.Sprintf(`{"id":%q}`, m.ID)
	}
	const single = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;"},"opts":{"shots":3}}`
	const batch = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;"},"bindings":[{"t":0.5},{"t":1}],"opts":{"shots":3}}`

	if data, err := json.Marshal(submitReq{Spec: CircuitSpec{QASM: "x"}}); err != nil || strings.Contains(string(data), "bindings") {
		t.Fatalf("single request marshals as %s, %v; want no bindings key", data, err)
	}
	created := id(call("create", single))
	if got := jsonKeys(t, call("run", created)); got != "" {
		t.Fatalf("run reply keys %q, want an empty object", got)
	}
	call("wait", created)
	submitted := id(call("submit", single))
	if got := jsonKeys(t, call("status", submitted)); got != "id,status" {
		t.Fatalf("status reply keys %q", got)
	}
	var res Result
	if err := json.Unmarshal(call("wait", submitted), &res); err != nil || res.Counts["0"] != 3 || res.TaskID == "" {
		t.Fatalf("wait reply %+v, %v", res, err)
	}
	if got := jsonKeys(t, call("wait_batch", id(call("submit_batch", batch)))); got != "errs,results" {
		t.Fatalf("wait_batch reply keys %q", got)
	}
	if got := jsonKeys(t, call("wait_grad", id(call("submit_grad", batch)))); got != "results" {
		t.Fatalf("wait_grad reply keys %q", got)
	}
	if err := json.Unmarshal(call("exec", single), &res); err != nil || res.Counts["0"] != 3 {
		t.Fatalf("exec reply %+v, %v", res, err)
	}
	if got := jsonKeys(t, call("exec_batch", batch)); got != "errs,results" {
		t.Fatalf("exec_batch reply keys %q", got)
	}
	if got := jsonKeys(t, call("exec_grad", batch)); got != "results" {
		t.Fatalf("exec_grad reply keys %q", got)
	}
	var list map[string]Status
	if err := json.Unmarshal(call("list", ""), &list); err != nil || len(list) != 4 {
		t.Fatalf("list reply %v, %v; want the four async jobs", list, err)
	}
	for jobID := range list {
		call("delete", fmt.Sprintf(`{"id":%q}`, jobID))
	}
	if got := string(call("list", "null")); got != "{}" {
		t.Fatalf("list after deletes = %s", got)
	}
	for method := range q.methods {
		_, err := q.Handle(method, []byte(`{"id":`))
		if err == nil || !strings.HasPrefix(err.Error(), "qpm[stub]: bad payload: ") {
			t.Errorf("%s on a malformed payload = %v, want the prefixed bad-payload error", method, err)
		}
	}
}

// stubExec implements all three executor interfaces without parsing anything,
// so whatever reaches it returns at once.
type stubExec struct{}

func (stubExec) Name() string { return "stub" }
func (stubExec) Capabilities() Capabilities {
	return Capabilities{Backend: "stub", CPU: true, Gradients: true}
}
func (stubExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	return ExecResult{Counts: map[string]int{"0": opts.Shots}}, nil
}
func (s stubExec) ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	out := make([]ExecResult, len(bindings))
	for i := range out {
		out[i], _ = s.Execute(spec, opts.ForElement(i))
	}
	return out, nil
}
func (stubExec) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	return make([]GradResult, len(bindings)), nil
}

// FuzzQPMHandle throws arbitrary (method, payload) pairs at the RPC surface
// of a QPM holding one finished job of each kind (stub-1, stub-batch-2,
// stub-grad-3, which the seeded id payloads address). Handle must never
// panic, must return an error or valid JSON, and whatever it created must
// be deletable, leaving the job table empty.
func FuzzQPMHandle(f *testing.F) {
	const single = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;"},"opts":{"shots":3,"timeout_ms":1000}}`
	const batch = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;","params":["t"]},"bindings":[{"t":0.5},{}],"opts":{"seed":7}}`
	for method, payload := range map[string]string{
		"exec": single, "create": single, "submit": single,
		"exec_batch": batch, "submit_batch": batch, "exec_grad": batch, "submit_grad": batch,
		"run": `{"id":"stub-1"}`, "status": `{"id":"stub-batch-2"}`, "delete": `{"id":"stub-grad-3"}`,
		"wait": `{"id":"stub-1"}`, "wait_batch": `{"id":"stub-batch-2"}`, "wait_grad": `{"id":"stub-grad-3"}`,
		"list": ``, "capabilities": `null`, "nope": `{}`,
	} {
		f.Add(method, []byte(payload))
	}
	spec := CircuitSpec{Name: "c", NQubits: 1, QASM: "OPENQASM 2.0;"}
	f.Fuzz(func(t *testing.T, method string, payload []byte) {
		q := NewQPM(stubExec{}, 2, nil)
		defer q.Close()
		for _, row := range kindRows(spec) {
			id, err := row.submit(q, RunOptions{Shots: 1})
			if err == nil {
				err = row.wait(q, id)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		out, err := q.Handle(method, payload)
		if err == nil && !json.Valid(out) {
			t.Fatalf("%s %q: reply is not JSON: %q", method, payload, out)
		}
		waitIdle(t, q)
		for id := range q.List() {
			if err := q.Delete(id); err != nil {
				t.Fatalf("%s %q left %s undeletable: %v", method, payload, id, err)
			}
		}
		if list := q.List(); len(list) != 0 {
			t.Fatalf("%s %q: job table %v after deleting everything", method, payload, list)
		}
	})
}
