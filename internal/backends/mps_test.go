package backends

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"qfw/internal/circuit"
	"qfw/internal/core"
	"qfw/internal/workloads"
)

// mpsAnsatz is a 6-qubit parametric nearest-neighbour ansatz used by the
// batch tests: structurally one spec, K bindings.
func mpsAnsatz() *circuit.Circuit {
	c := circuit.New(6)
	c.Name = "mps-ansatz"
	for q := 0; q < 6; q++ {
		c.H(q)
	}
	for i := 0; i+1 < 6; i++ {
		c.RZZ(i, i+1, circuit.Sym("gamma", 2))
	}
	for q := 0; q < 6; q++ {
		c.RX(q, circuit.Sym("beta", 2))
	}
	c.MeasureAll()
	return c
}

// TestMPSBatchCompileOncePerSpec is the compile-once regression of the MPS
// sub-backends: a K-element batch must parse the QASM once and build the
// routed schedule once (ParseCache.Memo), on both aer/matrix_product_state
// and tnqvm/exatn-mps.
func TestMPSBatchCompileOncePerSpec(t *testing.T) {
	env := testEnv(t)
	spec, err := core.SpecFromParametric(mpsAnsatz())
	if err != nil {
		t.Fatal(err)
	}
	const K = 8
	bindings := make([]core.Bindings, K)
	for i := range bindings {
		bindings[i] = core.Bindings{"gamma": 0.2 + 0.1*float64(i), "beta": 0.8 - 0.05*float64(i)}
	}
	cases := []struct {
		name  string
		sub   string
		make  func(*core.Env) (core.Executor, error)
		cache func(core.Executor) *core.ParseCache
	}{
		{"aer", "matrix_product_state", aer.open, func(e core.Executor) *core.ParseCache { return localOf(e).cache }},
		{"tnqvm", "exatn-mps", tnqvm.open, func(e core.Executor) *core.ParseCache { return localOf(e).cache }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec, err := tc.make(env)
			if err != nil {
				t.Fatal(err)
			}
			be := exec.(core.BatchExecutor)
			results, err := be.ExecuteBatch(spec, bindings, core.RunOptions{Shots: 256, Seed: 5, Subbackend: tc.sub})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != K {
				t.Fatalf("%d results, want %d", len(results), K)
			}
			cache := tc.cache(exec)
			if got := cache.Parses(); got != 1 {
				t.Fatalf("QASM parses = %d, want exactly 1 for the whole batch", got)
			}
			if got := cache.Memos(); got != 1 {
				t.Fatalf("compiled MPS schedules = %d, want exactly 1 for the whole batch", got)
			}
			for i, res := range results {
				if res.Extra["mps_fidelity"] <= 0 {
					t.Fatalf("element %d missing fidelity telemetry: %v", i, res.Extra)
				}
				if res.Extra["mps_peak_bond"] < 1 {
					t.Fatalf("element %d missing peak-bond telemetry", i)
				}
			}
		})
	}
}

// TestMPSBatchMatchesStandaloneExecute pins element semantics: batch
// element i must reproduce exactly what a standalone Execute of the bound
// circuit with the derived seed returns.
func TestMPSBatchMatchesStandaloneExecute(t *testing.T) {
	env := testEnv(t)
	ansatz := mpsAnsatz()
	spec, err := core.SpecFromParametric(ansatz)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	be := exec.(core.BatchExecutor)
	bindings := []core.Bindings{
		{"gamma": 0.3, "beta": 0.7},
		{"gamma": 0.9, "beta": 0.2},
	}
	opts := core.RunOptions{Shots: 512, Seed: 11, Subbackend: "matrix_product_state"}
	batch, err := be.ExecuteBatch(spec, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bindings {
		bound := ansatz.Bind(b)
		boundSpec, err := core.SpecFromCircuit(bound)
		if err != nil {
			t.Fatal(err)
		}
		single, err := exec.Execute(boundSpec, opts.ForElement(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single.Counts, batch[i].Counts) {
			t.Fatalf("element %d counts diverge from standalone execution", i)
		}
		if math.Abs(single.TruncErr-batch[i].TruncErr) > 1e-12 {
			t.Fatalf("element %d TruncErr diverges", i)
		}
	}
}

// TestAerMPSTFIM64Fidelity is the acceptance-scale check: a 64-qubit TFIM
// evolution — far beyond any dense engine's reach — runs through the real
// aer/matrix_product_state sub-backend under a bounded MaxBond with
// reported fidelity >= 0.999.
func TestAerMPSTFIM64Fidelity(t *testing.T) {
	env := testEnv(t)
	exec, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.SpecFromCircuit(workloads.TFIM(64, 4, 0.5, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Execute(spec, core.RunOptions{
		Shots: 64, Seed: 3, Subbackend: "matrix_product_state", MaxBond: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Extra["mps_fidelity"]; f < 0.999 {
		t.Fatalf("TFIM-64 fidelity %g under MaxBond=32, want >= 0.999", f)
	}
	total := 0
	for key, n := range res.Counts {
		if len(key) != 64 {
			t.Fatalf("count key length %d, want 64", len(key))
		}
		total += n
	}
	if total != 64 {
		t.Fatalf("sampled %d shots", total)
	}
}

// TestAutoRoutesLargeNearestNeighbourToMPS pins the AutoExecutor routing
// decision of the issue: large-n nearest-neighbour circuits (the TFIM
// regime) must go to aer/matrix_product_state — and actually execute there,
// at a size where the dense engines are infeasible.
func TestAutoRoutesLargeNearestNeighbourToMPS(t *testing.T) {
	env := testEnv(t)
	execs := map[string]core.Executor{}
	for name, make := range map[string]func(*core.Env) (core.Executor, error){
		"aer": aer.open, "nwqsim": nwqsim.open, "qtensor": qtensor.open, "tnqvm": tnqvm.open,
	} {
		e, err := make(env)
		if err != nil {
			t.Fatal(err)
		}
		execs[name] = e
	}
	auto := core.NewAutoExecutor(execs)
	spec, err := core.SpecFromCircuit(workloads.TFIM(64, 4, 0.5, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	backend, sub, rule, err := auto.RouteFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if backend != "aer" || sub != "matrix_product_state" {
		t.Fatalf("route = %s/%s (%s), want aer/matrix_product_state", backend, sub, rule)
	}
	if rule != "cost-model" && rule != "nearest-neighbour" {
		t.Fatalf("unexpected routing rule %q", rule)
	}
	res, err := auto.Execute(spec, core.RunOptions{Shots: 32, Seed: 7, MaxBond: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Route, "aer/matrix_product_state") {
		t.Fatalf("result route %q", res.Route)
	}
	if res.Extra["mps_fidelity"] < 0.999 {
		t.Fatalf("auto-routed TFIM-64 fidelity %g", res.Extra["mps_fidelity"])
	}
}

// TestMPSRunOptionsKnobs pins that MaxBond and Cutoff flow from RunOptions
// into the engine: a harsh bond cap on an entangling workload must report
// more discarded weight than the default.
func TestMPSRunOptionsKnobs(t *testing.T) {
	env := testEnv(t)
	exec, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	// A deep ring-QAOA block entangles enough to truncate at MaxBond=2.
	spec, err := core.SpecFromCircuit(workloads.RingQAOA(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	harsh, err := exec.Execute(spec, core.RunOptions{Shots: 64, Seed: 2, Subbackend: "mps", MaxBond: 2})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := exec.Execute(spec, core.RunOptions{Shots: 64, Seed: 2, Subbackend: "mps"})
	if err != nil {
		t.Fatal(err)
	}
	if harsh.TruncErr <= loose.TruncErr {
		t.Fatalf("MaxBond=2 discarded %g, default discarded %g — the knob is not wired", harsh.TruncErr, loose.TruncErr)
	}
	if harsh.Extra["mps_fidelity"] >= loose.Extra["mps_fidelity"] {
		t.Fatalf("fidelity should drop under the harsh cap")
	}
}
