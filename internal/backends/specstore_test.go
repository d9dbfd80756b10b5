package backends

import (
	"errors"
	"sync"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/workloads"
)

// ringAnsatz is a parametric one-layer QAOA ring on n qubits.
func ringAnsatz(n int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for i := 0; i < n; i++ {
		c.RZZ(i, (i+1)%n, circuit.Sym("gamma", 1))
	}
	for q := 0; q < n; q++ {
		c.RX(q, circuit.Sym("beta", 1))
	}
	c.MeasureAll()
	return c
}

// TestSessionSharesOneSpecStore: a Launched session parses each spec once
// and fusion-plans it once, whichever layers see it. New specs go through
// qpm.auto as single runs, batches and gradient batches, each sent by two
// goroutines at once; the router and the engines it picks share the parse
// and the plan, and every QPM counts the parses of that one store.
func TestSessionSharesOneSpecStore(t *testing.T) {
	s := launch(t)
	store := localOf(s.Executor("aer")).env.Specs()
	for _, name := range []string{"aer", "nwqsim", "tnqvm", "qtensor"} {
		if got := localOf(s.Executor(name)).env.Specs(); got != store {
			t.Fatalf("%s parses through its own store", name)
		}
	}
	if got := s.Executor("ionq").(*ionqBackend).env.Specs(); got != store {
		t.Fatal("ionq parses through its own store")
	}

	spec := func(c *circuit.Circuit) core.CircuitSpec {
		sp, err := core.SpecFromParametric(c)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	singles := []core.CircuitSpec{
		spec(workloads.GHZ(10)),
		spec(workloads.RingQAOA(10, 2)),
		spec(workloads.TFIM(12, 2, 1.0, 0.1)),
	}
	batches := []core.CircuitSpec{spec(mpsAnsatz()), spec(ringAnsatz(8))}
	grads := []core.CircuitSpec{spec(gradAnsatz()), spec(ringAnsatz(5))}
	n := int64(len(singles) + len(batches) + len(grads))
	// One binding list serves every ansatz: each reads its own names.
	bindings := []core.Bindings{
		{"gamma": 0.3, "beta": 0.7, "g": 0.4, "b": -0.4},
		{"gamma": -0.2, "beta": 0.1, "g": 0.1, "b": 0.2},
	}

	auto := s.QPM("auto")
	var wg sync.WaitGroup
	run := func(what string, call func() error) {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := call(); err != nil {
					t.Errorf("%s: %v", what, err)
				}
			}()
		}
	}
	for _, sp := range singles {
		run("exec "+sp.Name, func() error {
			_, err := auto.Exec(sp, core.RunOptions{Shots: 64, Seed: 3})
			return err
		})
	}
	for _, sp := range batches {
		run("exec_batch "+sp.Name, func() error {
			_, errs, err := auto.ExecBatch(sp, bindings, core.RunOptions{Shots: 64, Seed: 3})
			for _, e := range errs {
				if e != "" && err == nil {
					err = errors.New(e)
				}
			}
			return err
		})
	}
	for _, sp := range grads {
		obs := &core.Observable{Fields: make([]float64, sp.NQubits)}
		obs.Fields[0] = 1
		run("exec_grad "+sp.Name, func() error {
			_, err := auto.ExecGradient(sp, bindings, core.RunOptions{Observable: obs})
			return err
		})
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if got := store.Parses(); got != n {
		t.Errorf("session parses = %d, want %d: one per new spec", got, n)
	}
	// The router plans every spec to extract its cost features, and the
	// dense engines run from that plan.
	if got := store.Fusions(); got != n {
		t.Errorf("session fusion plans = %d, want %d: one per new spec", got, n)
	}
	if got := store.Grads(); got != int64(len(grads)) {
		t.Errorf("session gradient plans = %d, want %d", got, len(grads))
	}
	// A routing decision on a new spec parses once, in the same store.
	if _, err := s.Auto().Decide(spec(workloads.GHZ(11)), 1); err != nil {
		t.Fatal(err)
	}
	if got := store.Parses(); got != n+1 {
		t.Errorf("parses after one more routing decision = %d, want %d", got, n+1)
	}
	for _, name := range s.Backends() {
		if got := s.QPM(name).ParseCount(); got != store.Parses() {
			t.Errorf("qpm.%s ParseCount = %d, the session store's Parses = %d", name, got, store.Parses())
		}
	}
}
