package core

import (
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"qfw/internal/trace"
)

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
		st, ok := q.List()[id]
		if !ok {
			t.Fatalf("%s is not in the job table", id)
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
			// Queued behind a gated job, then done once the gate opens: the
			// job stays in the table, waiting on its id as another kind is
			// unknown (never a panic or a hang), and the blocking Exec form
			// leaves nothing behind.
			g := newGatedExec()
			q := NewQPM(g, 1, trace.NewRecorder())
			defer q.Close()
			defer g.open()
			blocker := blockWorker(t, q, spec)
			id, err := row.submit(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if list := q.List(); list[id] != StatusQueued || list[blocker] != StatusRunning || len(list) != 2 {
				t.Fatalf("behind the blocker: List = %v", list)
			}
			g.open()
			if err := row.wait(q, id); err != nil {
				t.Fatal(err)
			}
			if list := q.List(); list[id] != StatusDone || len(list) != 2 {
				t.Fatalf("finished job listed as %v, want it done beside the blocker", list)
			}
			for k, other := range rows {
				if k == i {
					continue
				}
				if err := other.wait(q, id); err == nil || !strings.Contains(err.Error(), "unknown") {
					t.Fatalf("%s wait on a %s id = %v, want unknown", other.name, row.name, err)
				}
			}
			if err := row.exec(q, opts); err != nil {
				t.Fatal(err)
			}
			if list := q.List(); len(list) != 2 {
				t.Fatalf("job table after exec: %v, want only the two submitted jobs", list)
			}

			// Running past its deadline: the wait reports it and the job is
			// listed as failed.
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
			if err := row.wait(q2, id); !IsDeadlineExceeded(err) {
				t.Fatalf("wait on a gated job with a deadline = %v, want deadline exceeded", err)
			}
			if st := q2.List()[id]; st != StatusFailed {
				t.Fatalf("deadline-expired job listed as %s, want failed", st)
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
	refused := 0
	for i := 0; i < 8; i++ {
		id, err := q.Submit(spec, RunOptions{Shots: 1})
		if err != nil {
			if !strings.Contains(err.Error(), "queue full") {
				t.Fatal(err)
			}
			refused++
			continue
		}
		live[id] = true
	}
	if refused != 7 {
		t.Fatalf("%d of 8 submits refused, want 7 (queue of one behind a blocked worker)", refused)
	}
	if list := q.List(); len(list) != len(live) {
		t.Fatalf("job table %v, want exactly the accepted jobs %v", list, live)
	}
	g.open()
	for id := range live {
		if _, err := q.Wait(id); err != nil {
			t.Fatal(err)
		}
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
// format decode (a single request has no "bindings" key), the five methods
// keep their reply keys, the job-handle methods are gone, and every method
// reports a malformed payload the same way.
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
	const single = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;"},"opts":{"shots":3}}`
	const batch = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;"},"bindings":[{"t":0.5},{"t":1}],"opts":{"shots":3}}`

	if data, err := json.Marshal(submitReq{Spec: CircuitSpec{QASM: "x"}}); err != nil || strings.Contains(string(data), "bindings") {
		t.Fatalf("single request marshals as %s, %v; want no bindings key", data, err)
	}
	var res Result
	if err := json.Unmarshal(call("exec", single), &res); err != nil || res.Counts["0"] != 3 || res.TaskID == "" {
		t.Fatalf("exec reply %+v, %v", res, err)
	}
	if got := jsonKeys(t, call("exec_batch", batch)); got != "errs,results" {
		t.Fatalf("exec_batch reply keys %q", got)
	}
	if got := jsonKeys(t, call("exec_grad", batch)); got != "results" {
		t.Fatalf("exec_grad reply keys %q", got)
	}
	var caps Capabilities
	if err := json.Unmarshal(call("capabilities", "null"), &caps); err != nil || caps.Backend != "stub" || !caps.Gradients {
		t.Fatalf("capabilities reply %+v, %v", caps, err)
	}
	if got := string(call("list", "")); got != "{}" {
		t.Fatalf("list after three execs = %s, want an empty table", got)
	}
	if len(q.methods) != 5 {
		t.Fatalf("QPM serves %d methods, want exec, exec_batch, exec_grad, list and capabilities", len(q.methods))
	}
	for _, method := range []string{"create", "run", "submit", "submit_batch", "submit_grad", "status", "wait", "wait_batch", "wait_grad", "delete"} {
		_, err := q.Handle(method, []byte(`{"id":"stub-1"}`))
		if err == nil || !strings.HasPrefix(err.Error(), "qpm[stub]: unknown method") {
			t.Errorf("%s = %v, want unknown method", method, err)
		}
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
// of a QPM. Handle must never panic and must return an error or valid JSON;
// once it has returned and the queue has drained, the job table is empty,
// since every method that makes a job reaps it before replying.
func FuzzQPMHandle(f *testing.F) {
	const single = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;"},"opts":{"shots":3,"timeout_ms":1000}}`
	const batch = `{"spec":{"name":"c","nqubits":1,"qasm":"OPENQASM 2.0;","params":["t"]},"bindings":[{"t":0.5},{}],"opts":{"seed":7}}`
	for _, seed := range [][2]string{
		{"exec", single}, {"exec", batch}, {"exec", `{"spec":{}}`}, {"exec", `{"id":`},
		{"exec_batch", batch}, {"exec_batch", single}, {"exec_batch", `[`},
		{"exec_grad", batch}, {"exec_grad", single}, {"exec_grad", `{"spec":{"qasm":"x"},"bindings":[{}],"opts":{"timeout_ms":1}}`},
		{"list", ``}, {"list", `null`}, {"list", `{"id":"stub-1"}`},
		{"capabilities", `null`}, {"capabilities", `[]`},
		{"nope", `{}`},
	} {
		f.Add(seed[0], []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, method string, payload []byte) {
		q := NewQPM(stubExec{}, 2, nil)
		defer q.Close()
		out, err := q.Handle(method, payload)
		if err == nil && !json.Valid(out) {
			t.Fatalf("%s %q: reply is not JSON: %q", method, payload, out)
		}
		waitIdle(t, q)
		if list := q.List(); len(list) != 0 {
			t.Fatalf("%s %q left jobs behind: %v", method, payload, list)
		}
	})
}
