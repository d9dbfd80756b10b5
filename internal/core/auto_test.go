package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/cost"
)

// routeSpec builds a spec from a circuit for routing tests.
func routeSpec(t *testing.T, c *circuit.Circuit) CircuitSpec {
	t.Helper()
	spec, err := SpecFromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func allFakeExecs() map[string]Executor {
	return map[string]Executor{
		"aer":     &fakeExec{name: "aer"},
		"nwqsim":  &fakeExec{name: "nwqsim"},
		"qtensor": &fakeExec{name: "qtensor"},
		"tnqvm":   &fakeExec{name: "tnqvm"},
		"ionq":    &fakeExec{name: "ionq"},
	}
}

func TestAutoRoutesClifford(t *testing.T) {
	a := NewAutoExecutor(allFakeExecs())
	c := circuit.New(4)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	backend, sub, rule, err := a.RouteFor(routeSpec(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if backend != "aer" || sub != "stabilizer" || rule != "clifford" {
		t.Fatalf("routed to %s/%s (%s)", backend, sub, rule)
	}
}

func TestAutoRoutesNearestNeighbour(t *testing.T) {
	a := NewAutoExecutor(allFakeExecs())
	c := circuit.New(14)
	for i := 0; i+1 < 14; i++ {
		c.RZZ(i, i+1, circuit.Bound(0.3))
		c.RX(i, circuit.Bound(0.2))
	}
	backend, sub, _, err := a.RouteFor(routeSpec(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if backend != "aer" || sub != "matrix_product_state" {
		t.Fatalf("routed to %s/%s", backend, sub)
	}
	// Without aer, tnqvm's MPS takes the rule.
	execs := allFakeExecs()
	delete(execs, "aer")
	a2 := NewAutoExecutor(execs)
	backend, sub, _, err = a2.RouteFor(routeSpec(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if backend != "tnqvm" || sub != "exatn-mps" {
		t.Fatalf("fallback routed to %s/%s", backend, sub)
	}
}

// largeDenseCircuit is a dense long-range non-Clifford circuit, deep enough
// to skip the shallow rule and entangling enough to saturate the bond bound.
func largeDenseCircuit() *circuit.Circuit {
	c := circuit.New(22)
	for d := 0; d < 4; d++ {
		for i := 0; i < 22; i++ {
			c.T(i)
			c.CX(i, (i+7)%22)
		}
	}
	return c
}

func TestAutoRoutesLargeDenseToStatevector(t *testing.T) {
	// Under the cost model a volume-law circuit must land on a dense
	// statevector engine: the MPS candidates are withdrawn because their
	// truncated runtime cannot back the fidelity.
	a := NewAutoExecutor(allFakeExecs())
	backend, sub, rule, err := a.RouteFor(routeSpec(t, largeDenseCircuit()))
	if err != nil {
		t.Fatal(err)
	}
	if rule != "cost-model" {
		t.Fatalf("routed by rule %q", rule)
	}
	if sub == "matrix_product_state" || sub == "exatn-mps" || sub == "stabilizer" {
		t.Fatalf("volume-law circuit routed to %s/%s", backend, sub)
	}
}

func TestAutoNeverRoutesToCloud(t *testing.T) {
	execs := map[string]Executor{"ionq": &fakeExec{name: "ionq"}}
	a := NewAutoExecutor(execs)
	c := circuit.New(4)
	c.T(0)
	if _, _, _, err := a.RouteFor(routeSpec(t, c)); err == nil {
		t.Fatal("auto routed to the cloud with no local backend")
	}
}

func TestAutoExecuteAnnotatesRoute(t *testing.T) {
	a := NewAutoExecutor(allFakeExecs())
	c := circuit.New(3)
	c.H(0).CX(0, 1).MeasureAll()
	spec := routeSpec(t, c)
	res, err := a.Execute(spec, RunOptions{Shots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Route, "aer/stabilizer") {
		t.Fatalf("route %q", res.Route)
	}
	if res.Extra["auto_routed"] != 1 {
		t.Fatalf("extra %v", res.Extra)
	}
}

func TestObservableEnergy(t *testing.T) {
	obs := &Observable{
		Fields:    []float64{1, -0.5},
		Couplings: []Coupling{{I: 0, J: 1, V: 2}},
	}
	// |00>: z=(+1,+1): 1 - 0.5 + 2 = 2.5
	if e := obs.EnergyOfIndex(0); math.Abs(e-2.5) > 1e-12 {
		t.Fatalf("E(00)=%g", e)
	}
	// |01> (qubit0=1): -1 - 0.5 - 2 = -3.5
	if e := obs.EnergyOfIndex(1); math.Abs(e+3.5) > 1e-12 {
		t.Fatalf("E(01)=%g", e)
	}
	if e := obs.EnergyOfKey("01"); math.Abs(e+3.5) > 1e-12 {
		t.Fatalf("key E(01)=%g", e)
	}
	counts := map[string]int{"00": 3, "01": 1}
	want := (3*2.5 + 1*(-3.5)) / 4
	if e := obs.FromCounts(counts); math.Abs(e-want) > 1e-12 {
		t.Fatalf("FromCounts=%g want %g", e, want)
	}
	if e := obs.FromCounts(nil); e != 0 {
		t.Fatalf("empty counts %g", e)
	}
}

// capExec is a fakeExec advertising custom hardware capabilities.
type capExec struct {
	fakeExec
	caps Capabilities
}

func (c *capExec) Capabilities() Capabilities { return c.caps }

// fakeBatchExec records each batch it receives (element count and base
// seed) so tests can assert how the selector delegated the work.
type fakeBatchExec struct {
	fakeExec
	mu      sync.Mutex
	batches []int
	seeds   []int64
}

func (f *fakeBatchExec) ExecuteBatch(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]ExecResult, error) {
	f.mu.Lock()
	f.batches = append(f.batches, len(bindings))
	f.seeds = append(f.seeds, opts.Seed)
	f.mu.Unlock()
	out := make([]ExecResult, len(bindings))
	for i := range out {
		out[i] = ExecResult{Counts: map[string]int{"0": 1}}
	}
	return out, nil
}

// fakeGradExec is a gradient-capable fake.
type fakeGradExec struct {
	fakeExec
	mu    sync.Mutex
	grads int
}

func (f *fakeGradExec) ExecuteGradient(spec CircuitSpec, bindings []Bindings, opts RunOptions) ([]GradResult, error) {
	f.mu.Lock()
	f.grads++
	f.mu.Unlock()
	out := make([]GradResult, len(bindings))
	return out, nil
}

func TestAutoCapabilitiesUnion(t *testing.T) {
	// CPU-only registered executors: auto must not advertise hardware no
	// routable backend has. The cloud backend never contributes, whatever
	// it claims.
	a := NewAutoExecutor(map[string]Executor{
		"aer":    &fakeExec{name: "aer"},
		"nwqsim": &fakeExec{name: "nwqsim"},
		"ionq":   &capExec{fakeExec: fakeExec{name: "ionq"}, caps: Capabilities{Backend: "ionq", GPU: true, NativeMPI: true}},
	})
	caps := a.Capabilities()
	if !caps.CPU || caps.GPU || caps.NativeMPI {
		t.Fatalf("CPU-only subset advertised %+v", caps)
	}
	// A GPU+MPI executor joins: the union picks both up.
	b := NewAutoExecutor(map[string]Executor{
		"aer":    &fakeExec{name: "aer"},
		"nwqsim": &capExec{fakeExec: fakeExec{name: "nwqsim"}, caps: Capabilities{Backend: "nwqsim", CPU: true, GPU: true, NativeMPI: true}},
	})
	caps = b.Capabilities()
	if !caps.CPU || !caps.GPU || !caps.NativeMPI {
		t.Fatalf("union missed capabilities: %+v", caps)
	}
}

// evenCal builds a calibration where the two dense engines are exactly as
// fast, so the ranking falls to the engine-key tie-break.
func evenCal() *cost.Calibration {
	cv := cost.Curve{Base: 1, Slope: 1, Knee: 10, Slope2: 1}
	return &cost.Calibration{
		Version: 1, Source: "test",
		Curves: map[string]cost.Curve{
			cost.AerSV:     cv,
			cost.NWQOpenMP: cv,
		},
	}
}

// denseSpec returns a small dense non-Clifford circuit spec.
func denseSpec(t *testing.T) CircuitSpec {
	t.Helper()
	c := circuit.New(6)
	for i := 0; i < 6; i++ {
		c.T(i)
		c.CX(i, (i+2)%6)
	}
	return routeSpec(t, c)
}

// seedExec is a non-batch fake that records the seed of every element.
type seedExec struct {
	fakeExec
	seeds []int64
}

func (f *seedExec) Execute(spec CircuitSpec, opts RunOptions) (ExecResult, error) {
	f.seeds = append(f.seeds, opts.Seed)
	return f.fakeExec.Execute(spec, opts)
}

func TestAutoBatchKeepsSingleEngineWhenSmall(t *testing.T) {
	// A batch of any size runs whole on the one engine the ranking picks,
	// even when the runner-up is exactly as fast.
	for _, k := range []int{2, 8} {
		aer := &fakeBatchExec{fakeExec: fakeExec{name: "aer"}}
		nwq := &fakeBatchExec{fakeExec: fakeExec{name: "nwqsim"}}
		a := NewAutoExecutor(map[string]Executor{"aer": aer, "nwqsim": nwq}).
			WithModel(cost.NewModel(evenCal()))
		results, err := a.ExecuteBatch(denseSpec(t), make([]Bindings, k), RunOptions{Shots: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != k {
			t.Fatalf("K=%d: got %d results", k, len(results))
		}
		// A batch-native engine gets the caller's base seed untouched and
		// derives ForElement(i) itself.
		if len(aer.batches) != 1 || aer.batches[0] != k || aer.seeds[0] != 7 || len(nwq.batches) != 0 {
			t.Fatalf("K=%d: batches aer=%v (seeds %v) nwqsim=%v, want the whole batch on aer with seed 7", k, aer.batches, aer.seeds, nwq.batches)
		}
		for _, r := range results {
			if r.Route != "aer/statevector (cost-model)" || r.Extra["auto_predicted_ms"] <= 0 || len(r.Extra) != 2 {
				t.Fatalf("K=%d: route %q extra %v", k, r.Route, r.Extra)
			}
		}
	}
	// An engine without native batching runs element i under ForElement(i)
	// of the caller's seed.
	aer := &seedExec{fakeExec: fakeExec{name: "aer"}}
	a := NewAutoExecutor(map[string]Executor{"aer": aer}).WithModel(cost.NewModel(evenCal()))
	opts := RunOptions{Shots: 1, Seed: 7}
	if _, err := a.ExecuteBatch(denseSpec(t), make([]Bindings, 8), opts); err != nil {
		t.Fatal(err)
	}
	for i, got := range aer.seeds {
		if want := opts.ForElement(i).Seed; got != want {
			t.Fatalf("element %d ran under seed %d, want %d", i, got, want)
		}
	}
	if len(aer.seeds) != 8 {
		t.Fatalf("ran %d elements, want 8", len(aer.seeds))
	}
}

func TestAutoFeaturesExtractedOncePerBatch(t *testing.T) {
	aer := &fakeBatchExec{fakeExec: fakeExec{name: "aer"}}
	a := NewAutoExecutor(map[string]Executor{"aer": aer}).
		WithModel(cost.NewModel(evenCal()))
	spec := denseSpec(t)
	if _, err := a.ExecuteBatch(spec, make([]Bindings, 6), RunOptions{Shots: 1}); err != nil {
		t.Fatal(err)
	}
	if got := a.specs.Memos(); got != 1 {
		t.Fatalf("feature extractions after batch: %d, want 1", got)
	}
	// A second submission of the same spec reuses the memoized features.
	if _, err := a.Execute(spec, RunOptions{Shots: 1}); err != nil {
		t.Fatal(err)
	}
	if got := a.specs.Memos(); got != 1 {
		t.Fatalf("feature extractions after resubmit: %d, want 1", got)
	}
}

func TestAutoGradientRoutesByPredictedCost(t *testing.T) {
	// nwqsim's curve is far cheaper: the gradient must leave the fixed
	// aer-first order and follow the model.
	aer := &fakeGradExec{fakeExec: fakeExec{name: "aer"}}
	nwq := &fakeGradExec{fakeExec: fakeExec{name: "nwqsim"}}
	cal := evenCal()
	cv := cal.Curves[cost.NWQOpenMP]
	cv.Base -= 10 // 1024x faster
	cal.Curves[cost.NWQOpenMP] = cv
	a := NewAutoExecutor(map[string]Executor{"aer": aer, "nwqsim": nwq}).
		WithModel(cost.NewModel(cal))
	if _, err := a.ExecuteGradient(denseSpec(t), make([]Bindings, 2), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if nwq.grads != 1 || aer.grads != 0 {
		t.Fatalf("gradient calls aer=%d nwqsim=%d", aer.grads, nwq.grads)
	}
}
