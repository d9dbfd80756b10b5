package serve

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/core"
	"qfw/internal/defw"

	_ "qfw/internal/backends" // register real executors
)

// TestServeOverSessionRPC drives the serving layer exactly as cmd/qfwd
// wires it: registered beside the raw QPM service on a live session's DEFw
// endpoint, exercised through the typed client, against the real aer
// executor. It pins the acceptance property that a cached replay is
// bit-identical to a recompute.
func TestServeOverSessionRPC(t *testing.T) {
	sess, err := core.Launch(core.Config{
		Machine:  cluster.Frontier(2),
		Backends: []string{"aer"},
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	qpm := sess.QPM("aer")
	srv := New(qpm, Config{Window: 2 * time.Millisecond}, sess.Rec)
	defer srv.Close()
	sess.RegisterService(ServiceName("aer"), srv)

	conn, err := sess.Connect()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn, "aer", "alice")

	c := circuit.New(3)
	c.H(0).CX(0, 1).CX(1, 2)
	c.MeasureAll()
	c.Name = "ghz"
	spec, err := core.SpecFromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.RunOptions{Shots: 200, Seed: 9}

	r1, info1, err := cl.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info1.CacheHits != 0 {
		t.Fatalf("first run reported %d cache hits", info1.CacheHits)
	}
	r2, info2, err := cl.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info2.CacheHits != 1 {
		t.Fatalf("repeat run reported %d cache hits, want 1", info2.CacheHits)
	}
	if fmt.Sprint(r1.Counts) != fmt.Sprint(r2.Counts) {
		t.Fatalf("cached replay %v != original %v", r2.Counts, r1.Counts)
	}

	// Bit-identical to a recompute on the raw QPM service with the same
	// seed — the cache must be invisible in the physics.
	id, err := qpm.Submit(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := qpm.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(direct.Counts) != fmt.Sprint(r1.Counts) {
		t.Fatalf("served counts %v != direct QPM counts %v", r1.Counts, direct.Counts)
	}

	// A parametric sweep through the serving layer matches the direct batch
	// submission element-for-element.
	p := circuit.New(2)
	p.H(0).RZ(0, circuit.Sym("theta", 1)).CX(0, 1)
	p.MeasureAll()
	p.Name = "sweep"
	pspec, err := core.SpecFromParametric(p)
	if err != nil {
		t.Fatal(err)
	}
	bindings := []core.Bindings{{"theta": 0.1}, {"theta": 0.7}, {"theta": 1.3}}
	bopts := core.RunOptions{Shots: 100, Seed: 21}
	served, errs, _, err := cl.RunBatch(pspec, bindings, bopts)
	if err != nil {
		t.Fatal(err)
	}
	bid, err := qpm.SubmitBatch(pspec, bindings, bopts)
	if err != nil {
		t.Fatal(err)
	}
	directRes, directErrs, err := qpm.WaitBatch(bid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bindings {
		if errs[i] != "" || directErrs[i] != "" {
			t.Fatalf("element %d errors: served=%q direct=%q", i, errs[i], directErrs[i])
		}
		if fmt.Sprint(served[i].Counts) != fmt.Sprint(directRes[i].Counts) {
			t.Fatalf("element %d: served %v != direct %v", i, served[i].Counts, directRes[i].Counts)
		}
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits < 1 || st.Served < 4 {
		t.Fatalf("stats over RPC: %+v", st)
	}
	if err := cl.SetTenant("alice", 4, 100); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ten := st.Tenants["alice"]; ten.Weight != 4 || ten.Quota != 100 {
		t.Fatalf("set_tenant not applied: %+v", ten)
	}
}

// TestOverloadErrorSurvivesRPC pins that load shedding stays typed across
// the wire: the flattened error string still satisfies IsOverloaded.
func TestOverloadErrorSurvivesRPC(t *testing.T) {
	f := &fakeExec{deterministic: true, gate: make(chan struct{})}
	q := core.NewQPM(f, 1, nil)
	defer q.Close()
	defer f.open()
	srv := New(q, Config{Inflight: 1, QueueCap: 1, Quota: 100}, nil)
	defer srv.Close()

	rpc := defw.NewServer()
	rpc.Register(ServiceName("fake"), srv)
	defer rpc.Close()
	cl := NewClient(defw.NewPipeClient(rpc), "fake", "t")

	sp := testSpec("shed-rpc")
	// Fill the dispatch slot, then the one queue slot.
	go func() {
		_, _, _, _ = srv.Exec("t", sp, nil, core.RunOptions{Shots: 1, Seed: 1})
	}()
	waitFor(t, "first dispatch", func() bool { return f.calls() == 1 })
	go func() {
		_, _, _, _ = srv.Exec("t", sp, nil, core.RunOptions{Shots: 1, Seed: 2})
	}()
	waitFor(t, "saturation", func() bool { return srv.Stats().QueueDepth == 1 })

	_, _, err := cl.Run(sp, core.RunOptions{Shots: 1, Seed: 99})
	if err == nil {
		t.Fatal("over-cap RPC submission succeeded")
	}
	if !IsOverloaded(err) {
		t.Fatalf("RPC-flattened shed error %v does not satisfy IsOverloaded", err)
	}
	if d, ok := RetryAfterHint(err); !ok || d <= 0 {
		t.Fatalf("client-side shed error carries no retry hint: %v", err)
	}
	f.open()
}

// TestAnalyticFillAndReplayShipNoCounts pins serve_hot's replay check on an
// analytic batch against the real aer executor, over the session's RPC: the
// fill and its cache replay both carry an ExpVal and no histogram, and their
// canonical payloads are byte-equal.
func TestAnalyticFillAndReplayShipNoCounts(t *testing.T) {
	sess, err := core.Launch(core.Config{Machine: cluster.Frontier(2), Backends: []string{"aer"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	srv := New(sess.QPM("aer"), Config{}, sess.Rec)
	defer srv.Close()
	sess.RegisterService(ServiceName("aer"), srv)
	conn, err := sess.Connect()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn, "aer", "alice")

	p := circuit.New(3)
	p.H(0).RZ(0, circuit.Sym("theta", 1)).CX(0, 1).RY(2, circuit.Sym("theta", 0.5)).CX(1, 2)
	p.MeasureAll()
	p.Name = "analytic-sweep"
	spec, err := core.SpecFromParametric(p)
	if err != nil {
		t.Fatal(err)
	}
	bindings := []core.Bindings{{"theta": 0.2}, {"theta": 0.9}}
	opts := core.RunOptions{Subbackend: "statevector", Observable: &core.Observable{Fields: []float64{1, -0.5, 0.25}}}
	payload := func(out []*core.Result) string {
		type row struct {
			Counts map[string]int `json:"counts"`
			ExpVal *float64       `json:"expval"`
		}
		rows := make([]row, len(out))
		for i, r := range out {
			if r.Counts != nil || r.ExpVal == nil {
				t.Fatalf("element %d: %d counts, ExpVal %v; want none and a value", i, len(r.Counts), r.ExpVal)
			}
			rows[i] = row{r.Counts, r.ExpVal}
		}
		b, _ := json.Marshal(rows)
		return string(b)
	}

	fill, errs, info, err := cl.RunBatch(spec, bindings, opts)
	if err != nil || info.CacheHits != 0 {
		t.Fatalf("fill: err %v, errs %v, %d hits", err, errs, info.CacheHits)
	}
	replay, errs, info, err := cl.RunBatch(spec, bindings, opts)
	if err != nil || info.CacheHits != len(bindings) {
		t.Fatalf("replay: err %v, errs %v, %d hits", err, errs, info.CacheHits)
	}
	if a, b := payload(fill), payload(replay); a != b {
		t.Fatalf("replay payload %s != fill %s", b, a)
	}
}

// TestClientRejectsAReplyOfWrongLength: the typed client turns a reply that
// does not hold one result per element (and none or one error string per
// element) into an error instead of passing a short slice on.
func TestClientRejectsAReplyOfWrongLength(t *testing.T) {
	one := &core.Result{Counts: map[string]int{"0": 1}}
	rpc := defw.NewServer()
	defer rpc.Close()
	var rep ExecResp
	rpc.Register(ServiceName("short"), defw.HandlerFunc(func(string, []byte) ([]byte, error) {
		return json.Marshal(rep)
	}))
	cl := NewClient(defw.NewPipeClient(rpc), "short", "t")
	sp := testSpec("short-reply")
	two := []core.Bindings{{"a": 1}, {"a": 2}}
	rep = ExecResp{Results: []*core.Result{one}}
	if _, _, _, err := cl.RunBatch(sp, two, core.RunOptions{Shots: 1}); err == nil {
		t.Fatal("one result for two bindings was accepted")
	}
	rep = ExecResp{Results: []*core.Result{one, one}, Errs: []string{""}}
	if _, _, _, err := cl.RunBatch(sp, two, core.RunOptions{Shots: 1}); err == nil {
		t.Fatal("one error string for two bindings was accepted")
	}
	rep = ExecResp{}
	if _, _, err := cl.Run(sp, core.RunOptions{Shots: 1}); err == nil {
		t.Fatal("no result for a single run was accepted")
	}
	rep = ExecResp{Results: []*core.Result{one, one}}
	if out, errs, _, err := cl.RunBatch(sp, two, core.RunOptions{Shots: 1}); err != nil || len(out) != 2 || len(errs) != 2 {
		t.Fatalf("a well-formed reply came back as %d results, %d errors, %v", len(out), len(errs), err)
	}
}
