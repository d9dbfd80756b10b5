package core

import (
	"strings"
	"sync"
	"testing"

	"qfw/internal/circuit"
)

// gradExec extends the batch fake with a gradient capability: the
// "gradient" of the 1-parameter test ansatz is just the binding value
// echoed back, which makes ordering and plumbing observable.
type gradExec struct {
	*paramExec
	mu        sync.Mutex
	gradCalls int
}

func newGradExec(name string) *gradExec { return &gradExec{paramExec: newParamExec(name)} }

func (g *gradExec) Capabilities() Capabilities {
	return Capabilities{Backend: g.name, Subbackends: []string{"default"}, Gradients: true}
}

func (g *gradExec) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	g.mu.Lock()
	g.gradCalls++
	g.mu.Unlock()
	base, gplan, err := g.cache.GetGrad(spec)
	if err != nil {
		return nil, err
	}
	_ = base
	out := make([]GradResult, len(bindings))
	for i, b := range bindings {
		grad := make([]float64, len(gplan.Params()))
		for j, name := range gplan.Params() {
			grad[j] = 2 * b[name]
		}
		out[i] = GradResult{Value: b[gplan.Params()[0]], Grad: grad}
	}
	return out, nil
}

func TestQPMGradientRPC(t *testing.T) {
	exec := newGradExec("gradback")
	qpm := NewQPM(exec, 2, nil)
	defer qpm.Close()
	spec, err := SpecFromParametric(parametricAnsatz(t))
	if err != nil {
		t.Fatal(err)
	}
	bindings := []Bindings{{"theta": 0.25}, {"theta": -1.5}}
	id, err := qpm.SubmitGradient(spec, bindings, RunOptions{Observable: &Observable{Fields: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := qpm.WaitGradient(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d, want 2", len(results))
	}
	if results[0].Value != 0.25 || results[1].Value != -1.5 {
		t.Fatalf("order lost: %+v", results)
	}
	if results[1].Grad[0] != -3 {
		t.Fatalf("gradient plumbing lost: %+v", results[1])
	}
	// Lifecycle integration: the gradient task is listed, done.
	if st := qpm.List()[id]; st != StatusDone {
		t.Fatalf("gradient task listed as %q, want done", st)
	}
}

func TestQPMGradientRejectsNonGradientBackend(t *testing.T) {
	qpm := NewQPM(newParamExec("plain"), 1, nil)
	defer qpm.Close()
	spec, _ := SpecFromParametric(parametricAnsatz(t))
	_, err := qpm.SubmitGradient(spec, []Bindings{{"theta": 1}}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "gradient") {
		t.Fatalf("expected gradient-unsupported error, got %v", err)
	}
}

func TestParseCacheGetGradSingleFlight(t *testing.T) {
	pc := NewParseCache()
	c := circuit.New(2)
	c.RX(0, circuit.Sym("a", 1)).CX(0, 1).MeasureAll()
	spec, err := SpecFromParametric(c)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := pc.GetGrad(spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if pc.Grads() != 1 {
		t.Fatalf("gradient plans built %d, want 1", pc.Grads())
	}
	if pc.Parses() != 1 {
		t.Fatalf("parses %d, want 1", pc.Parses())
	}
	// The gradient plan coexists with the ordinary fused plan on one entry.
	if _, _, err := pc.GetFused(spec); err != nil {
		t.Fatal(err)
	}
	if pc.Len() != 1 {
		t.Fatalf("cache entries %d, want 1", pc.Len())
	}
}

func TestCapabilitiesGradientSubScoping(t *testing.T) {
	caps := Capabilities{Gradients: true, GradientSubs: []string{"statevector", "automatic"}}
	for sub, want := range map[string]bool{
		"":                     true,
		"statevector":          true,
		"Automatic":            true,
		"matrix_product_state": false,
	} {
		if got := caps.SupportsGradientSub(sub); got != want {
			t.Errorf("sub %q: got %v want %v", sub, got, want)
		}
	}
	if (Capabilities{}).SupportsGradientSub("") {
		t.Error("gradient-less capability row must report false")
	}
	all := Capabilities{Gradients: true}
	if !all.SupportsGradientSub("anything") {
		t.Error("empty GradientSubs must cover every sub-backend")
	}
}
