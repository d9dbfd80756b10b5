package core_test

import (
	"reflect"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/core"

	_ "qfw/internal/backends" // the identity must hold on a real engine
)

// physics is the part of a Result the execution path determines; TaskID and
// Timings legitimately differ between two executions of one request.
type physics struct {
	Backend, Subbackend, Route string
	Counts                     map[string]int
	ExpVal                     *float64
	TruncErr                   float64
}

func physicsOf(r *core.Result) physics {
	return physics{r.Backend, r.Subbackend, r.Route, r.Counts, r.ExpVal, r.TruncErr}
}

// TestExecMatchesSubmitWaitOverTCP pins that the one-round-trip exec RPCs
// are the submit → wait path and nothing else: the same seeded request
// through the Frontend over a real TCP DEFw connection and through the
// in-process QPM.Submit* + Wait* of the aer statevector engine returns a
// bit-identical Result, batch and gradient alike.
func TestExecMatchesSubmitWaitOverTCP(t *testing.T) {
	sess, err := core.Launch(core.Config{
		Machine:  cluster.Frontier(2),
		Backends: []string{"aer"},
		Workers:  2,
		UseTCP:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Teardown()
	front, err := sess.Frontend(core.Properties{Backend: "aer", Subbackend: "statevector"})
	if err != nil {
		t.Fatal(err)
	}

	ansatz := circuit.New(3)
	ansatz.Name = "ansatz"
	ansatz.H(0).CX(0, 1).RX(1, circuit.Sym("a", 1)).CX(1, 2).RZ(2, circuit.Sym("b", 2)).RX(0, circuit.Sym("a", 0.5))
	ansatz.MeasureAll()
	bindings := []core.Bindings{{"a": 0.3, "b": -1.1}, {"a": 1.7, "b": 0.4}, {"a": -0.9, "b": 2.2}}
	obs := &core.Observable{Fields: []float64{0.5, -1, 0.25}, Couplings: []core.Coupling{{I: 0, J: 2, V: 0.75}}}
	opts := core.RunOptions{Shots: 300, Seed: 17, Observable: obs, Subbackend: "statevector"}
	qpm := sess.QPM("aer")
	spec, err := core.SpecFromParametric(ansatz)
	if err != nil {
		t.Fatal(err)
	}
	// The in-process submissions stay in the table until the end; the
	// Frontend's calls must leave nothing beside them.
	submitted := map[string]bool{}

	t.Run("single", func(t *testing.T) {
		bound := ansatz.Bind(bindings[0])
		sync, err := front.Run(bound, opts)
		if err != nil {
			t.Fatal(err)
		}
		boundSpec, err := core.SpecFromCircuit(bound)
		if err != nil {
			t.Fatal(err)
		}
		id, err := qpm.Submit(boundSpec, opts)
		if err != nil {
			t.Fatal(err)
		}
		submitted[id] = true
		async, err := qpm.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(sync.Counts) < 2 || sync.ExpVal == nil {
			t.Fatalf("degenerate result %+v", sync)
		}
		if !reflect.DeepEqual(physicsOf(sync), physicsOf(async)) {
			t.Fatalf("exec %+v != Submit+Wait %+v", physicsOf(sync), physicsOf(async))
		}
		if sync.Timings.TotalMS != sync.Timings.Sum() || sync.Timings.Attempts != 1 {
			t.Fatalf("exec timings %+v", sync.Timings)
		}
	})

	t.Run("batch", func(t *testing.T) {
		sync, err := front.RunBatch(ansatz, bindings, opts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := qpm.SubmitBatch(spec, bindings, opts)
		if err != nil {
			t.Fatal(err)
		}
		submitted[id] = true
		async, errs, err := qpm.WaitBatch(id)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != "" {
				t.Fatalf("element %d: %s", i, e)
			}
		}
		if len(sync) != len(bindings) || len(async) != len(bindings) {
			t.Fatalf("%d / %d results for %d bindings", len(sync), len(async), len(bindings))
		}
		for i := range bindings {
			if !reflect.DeepEqual(physicsOf(sync[i]), physicsOf(async[i])) {
				t.Fatalf("element %d: exec_batch %+v != SubmitBatch+WaitBatch %+v", i, physicsOf(sync[i]), physicsOf(async[i]))
			}
		}
		if reflect.DeepEqual(sync[0].Counts, sync[1].Counts) {
			t.Fatal("elements 0 and 1 agree: the ForElement seed schedule or the bindings were lost")
		}
	})

	t.Run("gradient", func(t *testing.T) {
		gopts := core.RunOptions{Observable: obs, Subbackend: "statevector"}
		sync, err := front.RunGradient(ansatz, bindings, gopts)
		if err != nil {
			t.Fatal(err)
		}
		id, err := qpm.SubmitGradient(spec, bindings, gopts)
		if err != nil {
			t.Fatal(err)
		}
		submitted[id] = true
		async, err := qpm.WaitGradient(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sync, async) {
			t.Fatalf("exec_grad %+v != SubmitGradient+WaitGradient %+v", sync, async)
		}
		if len(sync) != len(bindings) || len(sync[0].Grad) != 2 {
			t.Fatalf("gradient shape %+v", sync)
		}
	})

	list, err := front.List()
	if err != nil || len(list) != len(submitted) {
		t.Fatalf("task table at the end: %v, %v; want only the in-process submissions %v", list, err, submitted)
	}
	for id, st := range list {
		if !submitted[id] || st != core.StatusDone {
			t.Fatalf("task table at the end: %v; want only the in-process submissions %v, done", list, submitted)
		}
	}
}
