package backends

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"qfw/internal/circuit"
	"qfw/internal/cluster"
	"qfw/internal/core"
	"qfw/internal/prte"
	"qfw/internal/slurm"
	"qfw/internal/trace"
)

// testEnv builds a minimal backend environment without a full session.
func testEnv(t *testing.T) *core.Env {
	t.Helper()
	machine := cluster.Frontier(2)
	sched := slurm.NewScheduler(machine)
	job, err := sched.Submit(slurm.JobReq{Name: "batch-test", HetGroups: []slurm.GroupReq{{Name: "g", Nodes: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := job.WaitStart()
	if err != nil {
		t.Fatal(err)
	}
	dvm, err := prte.Start(machine, alloc.Group(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dvm.Shutdown(); job.Complete() })
	return &core.Env{
		Machine:        machine,
		DVM:            dvm,
		Nodes:          alloc.Group(0).Nodes,
		Rec:            trace.NewRecorder(),
		MemBudgetBytes: 1 << 30,
		CloudLatency:   time.Millisecond,
		CloudJitter:    time.Millisecond,
		Seed:           1,
	}
}

// rotAnsatz is a tiny parametric circuit whose outcome distribution depends
// on theta, so batch elements are distinguishable.
func rotAnsatz() *circuit.Circuit {
	c := circuit.New(2)
	c.Name = "rot"
	c.RY(0, circuit.Sym("theta", 1))
	c.CX(0, 1)
	c.MeasureAll()
	return c
}

// p1 extracts the empirical probability of qubit 0 being 1.
func p1(counts map[string]int) float64 {
	total, ones := 0, 0
	for key, n := range counts {
		total += n
		if key[len(key)-1] == '1' {
			ones += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ones) / float64(total)
}

func TestLocalBackendsBatchParseOnce(t *testing.T) {
	env := testEnv(t)
	spec, err := core.SpecFromParametric(rotAnsatz())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.IsParametric() {
		t.Fatalf("spec not parametric: %+v", spec)
	}
	const K = 8
	bindings := make([]core.Bindings, K)
	for i := range bindings {
		bindings[i] = core.Bindings{"theta": math.Pi * float64(i) / float64(K-1)}
	}
	cases := []struct {
		name  string
		sub   string
		make  func(*core.Env) (core.Executor, error)
		cache func(core.Executor) *core.ParseCache
	}{
		{"nwqsim", "openmp", nwqsim.open, func(e core.Executor) *core.ParseCache { return localOf(e).cache }},
		{"aer", "statevector", aer.open, func(e core.Executor) *core.ParseCache { return localOf(e).cache }},
		{"tnqvm", "exatn-mps", tnqvm.open, func(e core.Executor) *core.ParseCache { return localOf(e).cache }},
		{"qtensor", "numpy", qtensor.open, func(e core.Executor) *core.ParseCache { return localOf(e).cache }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec, err := tc.make(env)
			if err != nil {
				t.Fatal(err)
			}
			be, ok := exec.(core.BatchExecutor)
			if !ok {
				t.Fatalf("%s does not implement BatchExecutor", tc.name)
			}
			results, err := be.ExecuteBatch(spec, bindings, core.RunOptions{Shots: 512, Seed: 3, Subbackend: tc.sub})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != K {
				t.Fatalf("%d results, want %d", len(results), K)
			}
			// theta sweeps 0..pi, so P(q0=1) must increase from ~0 to ~1:
			// ordering of results is observable.
			if first, last := p1(results[0].Counts), p1(results[K-1].Counts); first > 0.1 || last < 0.9 {
				t.Fatalf("batch order broken: P1(first)=%.2f P1(last)=%.2f", first, last)
			}
			if got := tc.cache(exec).Parses(); got != 1 {
				t.Fatalf("QASM parses = %d, want exactly 1 for the whole batch", got)
			}
		})
	}
}

// TestSingleRunsParseOnce pins that single runs go through the parse cache
// on every local backend and sub-backend: two concurrent Execute calls with
// one spec parse once, share the cached circuit, and only the dense engines
// (state vector and distributed) build a fusion plan, once.
func TestSingleRunsParseOnce(t *testing.T) {
	env := testEnv(t)
	spec, err := core.SpecFromCircuit(ghz(6))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rec     *record
		sub     string
		fusions int64
	}{
		{aer, "", 0}, // automatic: a Clifford circuit goes to the stabilizer
		{aer, "automatic", 0},
		{aer, "statevector", 1},
		{aer, "matrix_product_state", 0},
		{aer, "mps", 0},
		{aer, "stabilizer", 0},
		{nwqsim, "", 1},
		{nwqsim, "mpi", 1},
		{nwqsim, "openmp", 1},
		{nwqsim, "cpu", 1},
		{nwqsim, "amdgpu", 1},
		{tnqvm, "", 0},
		{tnqvm, "exatn-mps", 0},
		{qtensor, "", 0},
		{qtensor, "numpy", 0},
		{qtensor, "mpi", 0},
	}
	for _, tc := range cases {
		name := tc.rec.caps.Backend + "/" + tc.sub
		exec, err := tc.rec.open(env)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := exec.Execute(spec, core.RunOptions{Shots: 64, Seed: 3, Subbackend: tc.sub}); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}()
		}
		wg.Wait()
		cache := localOf(exec).cache
		if got := cache.Parses(); got != 1 {
			t.Errorf("%s: %d parses for two runs of one spec, want 1", name, got)
		}
		if got := cache.Fusions(); got != tc.fusions {
			t.Errorf("%s: %d fusion plans, want %d", name, got, tc.fusions)
		}
	}
}

func TestNWQSimMPIBatchPersistentWorld(t *testing.T) {
	// The mpi sub-backend's batch path keeps one process group and one
	// communicator world alive across all K bindings, shares the spec-hash
	// fused plan (one parse, one fusion for the whole batch), and each
	// element must reproduce exactly what a standalone distributed Execute
	// with the same derived seed produces.
	env := testEnv(t)
	exec, err := nwqsim.open(env)
	if err != nil {
		t.Fatal(err)
	}
	b := localOf(exec)
	ansatz := circuit.New(4)
	ansatz.Name = "mpi-batch"
	for q := 0; q < 4; q++ {
		ansatz.H(q)
	}
	for q := 0; q+1 < 4; q++ {
		ansatz.RZZ(q, q+1, circuit.Sym("gamma", 1))
	}
	for q := 0; q < 4; q++ {
		ansatz.RX(q, circuit.Sym("beta", 1))
	}
	ansatz.MeasureAll()
	spec, err := core.SpecFromParametric(ansatz)
	if err != nil {
		t.Fatal(err)
	}
	const K = 5
	bindings := make([]core.Bindings, K)
	for i := range bindings {
		bindings[i] = core.Bindings{"gamma": 0.2 * float64(i+1), "beta": 1.4 - 0.2*float64(i)}
	}
	obs := &core.Observable{Fields: []float64{1, -0.5, 0.25, 0}, Paulis: []core.PauliTerm{{Coeff: 0.3, Ops: "XIIX"}}}
	opts := core.RunOptions{Shots: 256, Seed: 9, Subbackend: "mpi", Nodes: 2, ProcsPerNode: 2, Observable: obs}
	batch, err := b.ExecuteBatch(spec, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != K {
		t.Fatalf("%d results, want %d", len(batch), K)
	}
	if got := b.cache.Parses(); got != 1 {
		t.Fatalf("QASM parses = %d, want 1 for the whole batch", got)
	}
	if got := b.cache.Fusions(); got != 1 {
		t.Fatalf("fusion plans = %d, want 1 for the whole batch", got)
	}
	for i, bd := range bindings {
		boundSpec, err := core.SpecFromCircuit(ansatz.Bind(bd))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := b.Execute(boundSpec, opts.ForElement(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Counts) != len(batch[i].Counts) {
			t.Fatalf("element %d: batch %v vs sequential %v", i, batch[i].Counts, seq.Counts)
		}
		for key, n := range seq.Counts {
			if batch[i].Counts[key] != n {
				t.Fatalf("element %d key %s: batch %d vs sequential %d", i, key, batch[i].Counts[key], n)
			}
		}
		if batch[i].ExpVal == nil || seq.ExpVal == nil || math.Abs(*batch[i].ExpVal-*seq.ExpVal) > 1e-12 {
			t.Fatalf("element %d expval: batch %v vs sequential %v", i, batch[i].ExpVal, seq.ExpVal)
		}
		if batch[i].Extra["ranks"] != 4 {
			t.Fatalf("element %d ran on %v ranks, want 4", i, batch[i].Extra["ranks"])
		}
	}
}

func TestIonQBatchJobArray(t *testing.T) {
	env := testEnv(t)
	exec, err := newIonQ(env)
	if err != nil {
		t.Fatal(err)
	}
	b := exec.(*ionqBackend)
	defer b.Close()
	spec, err := core.SpecFromParametric(rotAnsatz())
	if err != nil {
		t.Fatal(err)
	}
	bindings := []core.Bindings{{"theta": 0}, {"theta": math.Pi / 2}, {"theta": math.Pi}}
	results, err := b.ExecuteBatch(spec, bindings, core.RunOptions{Shots: 256, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if first, last := p1(results[0].Counts), p1(results[2].Counts); first > 0.1 || last < 0.9 {
		t.Fatalf("cloud batch order broken: P1(first)=%.2f P1(last)=%.2f", first, last)
	}
	if got := b.cache.Parses(); got != 1 {
		t.Fatalf("QASM parses = %d, want 1", got)
	}
}

func TestBatchMatchesSequentialExecution(t *testing.T) {
	// Element i of a batch must produce exactly the result a sequential
	// Execute with the bound circuit and the same derived seed produces.
	env := testEnv(t)
	exec, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	ansatz := rotAnsatz()
	spec, err := core.SpecFromParametric(ansatz)
	if err != nil {
		t.Fatal(err)
	}
	bindings := []core.Bindings{{"theta": 0.3}, {"theta": 1.1}, {"theta": 2.2}}
	opts := core.RunOptions{Shots: 128, Seed: 17, Subbackend: "statevector"}
	batch, err := exec.(core.BatchExecutor).ExecuteBatch(spec, bindings, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bindings {
		boundSpec, err := core.SpecFromCircuit(ansatz.Bind(b))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := exec.Execute(boundSpec, opts.ForElement(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Counts) != len(batch[i].Counts) {
			t.Fatalf("element %d: %v vs %v", i, seq.Counts, batch[i].Counts)
		}
		for key, n := range seq.Counts {
			if batch[i].Counts[key] != n {
				t.Fatalf("element %d key %s: batch %d vs sequential %d", i, key, batch[i].Counts[key], n)
			}
		}
	}
}

func TestSingleExecuteRejectsParametricSpec(t *testing.T) {
	env := testEnv(t)
	exec, err := aer.open(env)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.SpecFromParametric(rotAnsatz())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Execute(spec, core.RunOptions{}); err == nil {
		t.Fatal("parametric spec accepted by single-shot Execute")
	}
}

func TestNWQSimMPIFallsBackLocal(t *testing.T) {
	// When the MPI world cannot form — here the DVM is already shut down —
	// the mpi sub-backend must degrade to the node-local engine instead of
	// failing, tag every result with Extra["mpi_fallback"], and reproduce
	// the same physics the local engine computes directly (seeds are
	// derived identically on both routes).
	env := testEnv(t)
	exec, err := nwqsim.open(env)
	if err != nil {
		t.Fatal(err)
	}
	env.DVM.Shutdown()

	ansatz := circuit.New(3)
	ansatz.Name = "fallback-sweep"
	ansatz.H(0).CX(0, 1).CX(1, 2)
	ansatz.RZ(2, circuit.Sym("theta", 1))
	ansatz.MeasureAll()
	spec, err := core.SpecFromParametric(ansatz)
	if err != nil {
		t.Fatal(err)
	}
	bindings := []core.Bindings{{"theta": 0.3}, {"theta": 0.9}, {"theta": 1.5}}
	opts := core.RunOptions{Shots: 128, Seed: 7, Subbackend: "mpi", Nodes: 2, ProcsPerNode: 2}

	res, err := exec.(core.BatchExecutor).ExecuteBatch(spec, bindings, opts)
	if err != nil {
		t.Fatalf("batch did not degrade: %v", err)
	}
	lopts := opts
	lopts.Subbackend = "openmp"
	want, err := exec.(core.BatchExecutor).ExecuteBatch(spec, bindings, lopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Extra["mpi_fallback"] != 1 {
			t.Fatalf("element %d missing mpi_fallback tag: %+v", i, res[i].Extra)
		}
		if fmt.Sprint(res[i].Counts) != fmt.Sprint(want[i].Counts) {
			t.Fatalf("element %d: fallback %v != local %v", i, res[i].Counts, want[i].Counts)
		}
	}

	// The single-execution distributed path degrades the same way.
	bell := circuit.New(2)
	bell.Name = "fallback-bell"
	bell.H(0).CX(0, 1)
	bell.MeasureAll()
	bspec, err := core.SpecFromCircuit(bell)
	if err != nil {
		t.Fatal(err)
	}
	single, err := exec.Execute(bspec, core.RunOptions{Shots: 64, Seed: 11, Subbackend: "mpi", Nodes: 2, ProcsPerNode: 2})
	if err != nil {
		t.Fatalf("single execute did not degrade: %v", err)
	}
	if single.Extra["mpi_fallback"] != 1 {
		t.Fatalf("single execute missing mpi_fallback tag: %+v", single.Extra)
	}
	total := 0
	for key, n := range single.Counts {
		if key != "00" && key != "11" {
			t.Fatalf("bell outcome %q", key)
		}
		total += n
	}
	if total != 64 {
		t.Fatalf("total %d", total)
	}
}
